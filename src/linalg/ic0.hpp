// Incomplete Cholesky IC(0) preconditioner (§2.2.2, "ICCG").
//
// The paper's first attempt at preconditioning the finite-difference
// Laplacian: Cholesky restricted to the sparsity pattern of A. Kept here
// both as a baseline row of the Table 2.1 study and as a generally useful
// sparse preconditioner.
//
// The batched engine entry points are Ic0Factor (the factor plus its
// level-set schedule: rows grouped so that every row in a level depends
// only on rows of earlier levels, for both the forward L solve and the
// backward L' solve) and ic0_solve_many, which sweeps k right-hand sides
// through each level with the rows of a level fanned out across the
// util/parallel pool. Ic0Preconditioner packages factor + optional
// symmetric reordering (RCM) behind the Preconditioner interface.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/iterative.hpp"
#include "linalg/sparse.hpp"

namespace subspar {

/// Returns the lower-triangular IC(0) factor La of an SPD CSR matrix, with
/// nonzeros only where the lower triangle of A has them (no fill-in).
/// Diagonal breakdowns (non-positive pivots) are repaired by the standard
/// shift-to-positive fallback so the factor is always usable as a
/// preconditioner.
SparseMatrix ic0(const SparseMatrix& a);

/// Applies (La La')^{-1} via forward and backward substitution (serial
/// single-vector reference; the engine path is ic0_solve_many below).
Vector ic0_solve(const SparseMatrix& la, const Vector& b);

/// An IC(0) factor prepared for parallel triangular solves: the factor L,
/// its transpose L' (CSR rows of L' = columns of L, for a gather-based
/// backward sweep), reciprocal diagonal, and the level-set schedules.
/// Level sets are stored CSR-style: rows of forward level l are
/// fwd_rows[fwd_ptr[l] .. fwd_ptr[l+1]), ascending within each level. All
/// rows of one level are mutually independent, so a level is one
/// parallel_for with deterministic per-row arithmetic — bit-identical for
/// any SUBSPAR_THREADS.
struct Ic0Factor {
  SparseMatrix l;                          ///< lower-triangular factor
  SparseMatrix lt;                         ///< L' (upper-triangular CSR)
  std::vector<double> inv_diag;            ///< 1 / L(i,i)
  std::vector<std::size_t> fwd_ptr, fwd_rows;  ///< schedule for L y = b
  std::vector<std::size_t> bwd_ptr, bwd_rows;  ///< schedule for L' x = y

  std::size_t rows() const { return l.rows(); }
  std::size_t forward_levels() const { return fwd_ptr.empty() ? 0 : fwd_ptr.size() - 1; }
  std::size_t backward_levels() const { return bwd_ptr.empty() ? 0 : bwd_ptr.size() - 1; }
};

/// Factors `a` (IC(0), as ic0()) and builds the level-set schedule.
Ic0Factor ic0_factor(const SparseMatrix& a);

/// X = (La La')^{-1} B for k right-hand-side columns at once:
/// level-scheduled forward/backward substitution, each level's rows run in
/// parallel, the k columns of one row swept contiguously. Column j is
/// bit-identical to ic0_solve_many of that column alone, for any thread
/// count.
Matrix ic0_solve_many(const Ic0Factor& f, const Matrix& b);

/// Single-vector wrapper over the level-scheduled path (1-column
/// ic0_solve_many).
Vector ic0_solve(const Ic0Factor& f, const Vector& b);

/// IC(0) behind the blockwise Preconditioner interface, optionally on a
/// symmetrically permuted matrix: with a permutation p (typically
/// rcm_ordering(a)), the factor is built from P A P' and applied as
/// z = P' (L L')^{-1} P r, which is again symmetric positive definite.
/// RCM shrinks the factor's bandwidth (cache locality) and widens its
/// level sets (parallelism).
class Ic0Preconditioner final : public Preconditioner {
 public:
  /// Factors `a` directly (empty perm) or P A P' (perm = p, a permutation
  /// of [0, a.rows())).
  explicit Ic0Preconditioner(const SparseMatrix& a, std::vector<std::size_t> perm = {});

  void apply_many(const Matrix& r, Matrix& z) const override;

  const Ic0Factor& factor() const { return factor_; }
  const std::vector<std::size_t>& permutation() const { return perm_; }

 private:
  std::vector<std::size_t> perm_;  // empty = natural ordering
  Ic0Factor factor_;
};

}  // namespace subspar
