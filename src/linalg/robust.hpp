// Fault-tolerant wrapper around the blocked PCG engine.
//
// pcg_block reports non-convergence through BlockIterStats, but until this
// layer nothing consumed it: the solvers asserted and died. robust_pcg_block
// turns the flag (plus NaN/Inf garbage and injected faults) into a graceful
// degradation chain:
//
//   attempt 0   pcg_block as before — on success the result is returned
//               bit-identical, with zero extra operator applies;
//   verify      per-column TRUE residuals via one extra batched apply, so a
//               corrupted recurrence cannot silently accept garbage (a
//               corrupted verify apply can only cause a spurious retry);
//   restarts    up to max_restarts fresh pcg_block runs over the still-bad
//               columns, the last one with the tighter preconditioner when
//               the caller provides one (e.g. FdSolver swaps its fast-Poisson
//               preconditioner for IC(0));
//   direct      a dense Cholesky direct solve of the remaining columns
//               (caller-provided, typically size-gated), verified like any
//               other attempt;
//   failure     SolverConvergenceError naming the columns and residuals —
//               the typed error the Extractor maps to
//               ErrorCode::kSolverNonConvergence.
//
// Everything is deterministic: the chain's control flow depends only on the
// numerical results (and the seeded fault schedule of util/fault.hpp).
#pragma once

#include <cstddef>
#include <stdexcept>

#include "linalg/iterative.hpp"
#include "util/fault.hpp"

namespace subspar {

/// Thrown when every stage of the fallback chain failed for some column.
class SolverConvergenceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct RobustSolveOptions {
  IterOptions iter;
  /// Fresh iterative re-runs after the first attempt (the last one uses the
  /// tighter preconditioner when available).
  std::size_t max_restarts = 2;
  /// A recovered column is accepted when its verified TRUE relative residual
  /// is within accept_factor * iter.rel_tol (the recurrence residual that
  /// drives pcg_block's own convergence test is slightly optimistic).
  double accept_factor = 10.0;
};

/// What the chain did — callers fold this into SolverDiagnostics.
struct RobustSolveReport {
  std::size_t iterations = 0;         ///< block iterations, summed over attempts
  std::size_t restarts = 0;           ///< iterative re-runs taken
  std::size_t tighter_restarts = 0;   ///< restarts that used the tighter preconditioner
  std::size_t direct_columns = 0;     ///< columns recovered by the direct fallback
  std::size_t nonfinite_events = 0;   ///< non-finite candidate columns detected
  std::size_t max_iteration_hits = 0; ///< attempts that exhausted max_iterations
  double worst_residual = 0.0;        ///< worst verified residual among accepted columns
  bool clean = true;                  ///< attempt 0 succeeded; no fallback machinery ran
};

/// Dense direct solve of the still-bad right-hand-side columns.
using DirectSolveFn = std::function<Matrix(const Matrix& b)>;

/// Runs the chain described above. The happy path returns pcg_block's result
/// bit-identical. Every pcg_block attempt, restarts included, works in
/// `scratch` when given. Throws SolverConvergenceError when columns remain
/// unrecovered after the whole chain.
Matrix robust_pcg_block(const LinearOpMany& a, const Matrix& b, const RobustSolveOptions& opt,
                        RobustSolveReport* report, const Preconditioner* precond = nullptr,
                        const Preconditioner* tighter = nullptr,
                        const DirectSolveFn& direct = nullptr,
                        PcgBlockScratch* scratch = nullptr);

/// Applies the seeded fault schedule to a result block: when `site` fires,
/// one deterministic entry of `y` is overwritten with a deterministic
/// garbage value (alternating NaN / huge). Returns whether a fault fired.
/// A no-op (bit-identical `y`) when the harness is disarmed.
bool fault_corrupt(FaultSite site, Matrix& y);
/// Single-vector overload.
bool fault_corrupt(FaultSite site, Vector& y);

}  // namespace subspar
