// Incomplete Cholesky IC(0) preconditioner (§2.2.2, "ICCG").
//
// The paper's first attempt at preconditioning the finite-difference
// Laplacian: Cholesky restricted to the sparsity pattern of A. Kept here
// both as a baseline row of the Table 2.1 study and as a generally useful
// sparse preconditioner.
//
// The batched entry points are Ic0Factor (the natural-order factor, its
// transpose and reciprocal diagonal) and ic0_solve_many, which sweeps k
// right-hand sides through the triangular solves row by row, each row's k
// columns contiguous. Ic0Preconditioner packages the factor behind the
// Preconditioner interface.
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

/// An IC(0) factor prepared for batched triangular solves: the factor L,
/// its transpose L' (CSR rows of L' = columns of L, for a gather-based
/// backward sweep) and the reciprocal diagonal.
struct Ic0Factor {
  SparseMatrix l;                ///< lower-triangular factor
  SparseMatrix lt;               ///< L' (upper-triangular CSR)
  std::vector<double> inv_diag;  ///< 1 / L(i,i)

  std::size_t rows() const { return l.rows(); }
};

/// Factors `a` (IC(0), as ic0()) and prepares L' and the reciprocal
/// diagonal.
Ic0Factor ic0_factor(const SparseMatrix& a);

/// X = (La La')^{-1} B for k right-hand-side columns at once: forward
/// substitution over ascending rows, backward over descending rows, the k
/// columns of one row swept contiguously. Column j is bit-identical to
/// ic0_solve_many of that column alone.
Matrix ic0_solve_many(const Ic0Factor& f, const Matrix& b);

/// Single-vector wrapper (1-column ic0_solve_many).
Vector ic0_solve(const Ic0Factor& f, const Vector& b);

/// IC(0) of `a` in its natural ordering behind the blockwise
/// Preconditioner interface.
class Ic0Preconditioner final : public Preconditioner {
 public:
  explicit Ic0Preconditioner(const SparseMatrix& a);

  void apply_many(const Matrix& r, Matrix& z) const override;

  const Ic0Factor& factor() const { return factor_; }

 private:
  Ic0Factor factor_;
};

}  // namespace subspar
