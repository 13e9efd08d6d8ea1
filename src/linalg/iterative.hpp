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

/// Y = A X columnwise for a black-box linear operator, written into the
/// caller's block: y arrives sized (operator rows) x x.cols() with
/// unspecified contents, and the operator overwrites every entry. Each
/// column of X is an independent vector; implementations may batch or
/// thread the columns. The caller owns y, so a solver that keeps its
/// blocks across calls applies the operator without allocating.
using LinearOpMany = std::function<void(const Matrix& x, Matrix& y)>;

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

/// pcg_block's n x k working blocks: the active iterate, the residual, the
/// preconditioned residual, the search directions and the operator output.
/// pcg_block re-shapes each within its capacity and overwrites what it
/// reads, so one scratch kept across calls lets repeated solves of the same
/// size allocate no n x k block. One scratch serves one solve at a time.
struct PcgBlockScratch {
  Matrix x, r, z, p, q;
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
/// (nullptr = identity). The working blocks live in `scratch` when given
/// (the result does not depend on what it held), else in the call.
Matrix pcg_block(const LinearOpMany& a, const Matrix& b, const IterOptions& opt,
                 BlockIterStats* stats, const Preconditioner* precond = nullptr,
                 PcgBlockScratch* scratch = nullptr);

/// Restarted GMRES(m).
Vector gmres(const LinearOp& a, const Vector& b, std::size_t restart, const IterOptions& opt,
             IterStats* stats);

}  // namespace subspar
