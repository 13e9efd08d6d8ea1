// The black-box substrate solver interface (§2.1).
//
// Everything the sparsification algorithms assume about the substrate is
// captured here: a routine that maps the vector of contact voltages to the
// vector of contact currents (i.e., applies the dense conductance matrix G
// implicitly). The base class counts solves so the benches can report the
// paper's solve-reduction factors.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "geometry/layout.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "substrate/stack.hpp"

namespace subspar {

/// Content fingerprint (16 hex digits) of a solver's construction inputs:
/// panel grid, contact rectangles, layer profile, backplane. Concrete
/// solvers fold it into cache_tag() so a solver is cache-keyed to the
/// geometry it was actually built over, and the ModelCache key reuses it
/// for the (layout, stack) the caller passes — the two match exactly when
/// the caller keeps the documented precondition.
std::string substrate_fingerprint(const Layout& layout, const SubstrateStack& stack);

struct RobustSolveReport;  // linalg/robust.hpp

/// Robustness counters a solver accumulates across its solve calls. The
/// iterative solvers feed these from the robust_pcg_block fallback chain
/// (linalg/robust.hpp); the Extractor snapshots per-phase deltas into the
/// ExtractionReport. All zeros on a healthy run.
struct SolverDiagnostics {
  long iterations = 0;            ///< inner PCG iterations (block iterations per chunk)
  long max_iteration_hits = 0;    ///< iterative attempts that exhausted max_iterations
  long restarts = 0;              ///< fresh iterative re-runs taken by the fallback chain
  long tighter_restarts = 0;      ///< restarts that switched to a tighter preconditioner
  long direct_columns = 0;        ///< columns recovered by the dense direct fallback
  long nonfinite_recoveries = 0;  ///< non-finite candidate columns detected and retried
  double worst_residual = 0.0;    ///< worst verified residual among recovered columns
};

class SubstrateSolver {
 public:
  virtual ~SubstrateSolver() = default;

  /// Applies G: contact voltages in, contact currents out.
  Vector solve(const Vector& contact_voltages) const;

  /// Applies G to k voltage vectors at once (the columns of
  /// `contact_voltages`, an n_contacts x k matrix). Counts as k black-box
  /// solves — the paper's solve-reduction factors are unchanged by
  /// batching. The base implementation loops over do_solve(); solvers
  /// override do_solve_many() to share work across the columns (blocked
  /// PCG, batched transforms, thread fan-out). Results for each column
  /// agree with solve() of that column to solver tolerance, and are
  /// bit-identical across SUBSPAR_THREADS settings.
  Matrix solve_many(const Matrix& contact_voltages) const;

  /// Number of contact panels, i.e. the dimension of G.
  virtual std::size_t n_contacts() const = 0;
  /// Short solver label used in bench/table output.
  virtual std::string name() const = 0;

  /// Configuration digest for cache keying (subspar/cache.hpp): two solvers
  /// with equal cache_tag()s must implement the same operator G to solver
  /// tolerance. The base returns name(); concrete solvers append every
  /// construction option that changes G or its accuracy (grid spacing,
  /// wells, tolerances, ...) plus the substrate_fingerprint of the
  /// (layout, stack) they were built over, so a tag binds a solver to its
  /// actual construction geometry.
  virtual std::string cache_tag() const { return name(); }

  /// Black-box solves performed since construction / the last reset.
  long solve_count() const { return solve_count_; }
  /// Zeroes the solve counter (benches call this between phases).
  void reset_solve_count() const { solve_count_ = 0; }

  /// Robustness counters accumulated since construction / the last reset.
  const SolverDiagnostics& diagnostics() const { return diagnostics_; }
  void reset_diagnostics() const { diagnostics_ = SolverDiagnostics{}; }

 protected:
  /// Mutable hook for concrete solvers to fold fallback-chain reports into.
  SolverDiagnostics& diag() const { return diagnostics_; }
  /// Folds the report of one robust_pcg_block call (one column chunk)
  /// into `d`.
  static void accumulate_diag(SolverDiagnostics& d, const RobustSolveReport& r);

  /// Widest column chunk the iterative solvers hand one pcg_block call:
  /// bounds the O(k^2 n) Gram work and the O(k^3) small solves while
  /// keeping the spectrum deflation that makes the blocked iteration
  /// converge in far fewer iterations.
  static constexpr std::size_t kMaxSolveBlock = 16;
  /// Size gate for their dense direct-solve fallback: densifying and
  /// factoring the operator is O(n^2) memory and O(n^3) work.
  static constexpr std::size_t kMaxDirectDim = 4096;

  /// Implementation hook: one application of G (solve() wraps this and
  /// maintains the solve counter).
  virtual Vector do_solve(const Vector& contact_voltages) const = 0;

  /// Implementation hook for batched application; the default loops over
  /// do_solve() column by column.
  virtual Matrix do_solve_many(const Matrix& contact_voltages) const;

 private:
  mutable long solve_count_ = 0;
  mutable SolverDiagnostics diagnostics_;
};

/// Naive extraction: G(:, i) = solver(e_i), n solves (§1.2).
Matrix extract_dense(const SubstrateSolver& solver);

/// Extracts the columns listed in `cols` only (the 10% sample used to score
/// large examples in Table 4.3).
Matrix extract_columns(const SubstrateSolver& solver, const std::vector<std::size_t>& cols);

/// A deterministic every-k-th column sample covering ~`fraction` of columns.
/// Requires n > 0 and fraction in (0, 1]; always returns at least column 0.
std::vector<std::size_t> sample_columns(std::size_t n, double fraction);

}  // namespace subspar
