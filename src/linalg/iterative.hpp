// Krylov-subspace solvers operating on black-box operators (§2.2.2).
//
// Both substrate solvers use PCG: the finite-difference solver with the
// fast-Poisson-solver preconditioners of Table 2.1 (or incomplete Cholesky,
// or a multigrid V-cycle), the eigenfunction solver with block-Jacobi over
// contacts by default (SurfaceSolverOptions::contact_block_precond).
// GMRES(m) solves the circuit simulator's non-symmetric MNA systems
// (circuit/simulator.cpp).
#pragma once

#include <cstddef>
#include <functional>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace subspar {

/// y = A x for a black-box linear operator.
using LinearOp = std::function<Vector(const Vector&)>;

/// Y = A X columnwise for a black-box linear operator (each column of X is
/// an independent vector; implementations may batch or thread the columns).
using LinearOpMany = std::function<Matrix(const Matrix&)>;

/// The preconditioner interface of the batched sparse engine: one object
/// per factorization/setup, applied to whole blocks of residuals at once.
/// Implementations must be symmetric positive definite as operators (PCG
/// requirement), deterministic, and bit-identical for any SUBSPAR_THREADS;
/// apply_many on a 1-column matrix is the single-vector action. Concrete
/// engines: Ic0Preconditioner (linalg/ic0.hpp, batched triangular sweeps),
/// MultigridPreconditioner (substrate/multigrid.hpp, batched V-cycles), and
/// the fast-Poisson and block-Jacobi wrappers inside the substrate solvers.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  /// Z = M^{-1} R columnwise for k residual columns at once, written into
  /// the caller's z. z must already be r.rows() x r.cols() (otherwise
  /// std::invalid_argument) and must not be r itself; every entry is
  /// overwritten, so its prior contents never matter. An output block the
  /// caller keeps across calls is what lets pcg_block run without a fresh
  /// n x k allocation per iteration.
  virtual void apply_many(const Matrix& r, Matrix& z) const = 0;

  /// Single-vector convenience wrapper over apply_many.
  Vector apply(const Vector& r) const;
};

/// Adapter for ad-hoc preconditioners (tests, out-of-tree operators): wraps
/// a columnwise callable as a Preconditioner. The callable must return an
/// r-shaped block, which replaces z.
class FunctionPreconditioner final : public Preconditioner {
 public:
  explicit FunctionPreconditioner(LinearOpMany fn) : fn_(std::move(fn)) {}
  void apply_many(const Matrix& r, Matrix& z) const override;

 private:
  LinearOpMany fn_;
};

struct IterStats {
  std::size_t iterations = 0;
  double relative_residual = 0.0;  ///< ||b - A x|| / ||b|| at exit
  bool converged = false;
};

struct IterOptions {
  double rel_tol = 1e-9;
  std::size_t max_iterations = 1000;
};

/// Preconditioned conjugate gradient for SPD A (and SPD preconditioner
/// M^{-1}, passed as an operator; identity if omitted). Returns the solution
/// and fills `stats`.
Vector pcg(const LinearOp& a, const Vector& b, const IterOptions& opt, IterStats* stats,
           const LinearOp& precond = nullptr);

struct BlockIterStats {
  std::size_t iterations = 0;          ///< block iterations (shared by all columns)
  double max_relative_residual = 0.0;  ///< worst column at exit
  bool converged = false;              ///< every column converged
};

/// Blocked PCG for SPD A with k right-hand sides (the columns of b), sharing
/// one block-Krylov space across the columns (O'Leary): each iteration runs
/// ONE batched operator application for all k columns, and the block search
/// directions deflate the extremal spectrum, so the iteration count drops
/// well below the single-vector pcg()'s. Columns converge to the same
/// per-column tolerance as pcg(). Near-dependence inside the block (e.g. a
/// converged column) is handled by a spectral pseudo-inverse of the small
/// k x k Gram systems, so the method never breaks down. Zero columns of b
/// return zero columns. Deterministic for any SUBSPAR_THREADS.
/// Preconditioning goes through the blockwise Preconditioner interface
/// (nullptr = identity); wrap ad-hoc callables in FunctionPreconditioner.
Matrix pcg_block(const LinearOpMany& a, const Matrix& b, const IterOptions& opt,
                 BlockIterStats* stats, const Preconditioner* precond = nullptr);

/// Restarted GMRES(m).
Vector gmres(const LinearOp& a, const Vector& b, std::size_t restart, const IterOptions& opt,
             IterStats* stats);

}  // namespace subspar
