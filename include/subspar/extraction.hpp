// Public header: the ExtractionRequest -> ExtractionResult pipeline.
//
// The Extractor owns everything between "here is a black-box solver over a
// contact layout" and "here is a sparse substrate model plus a structured
// account of what building it cost": option validation, the quadtree build,
// method dispatch (wavelet / low-rank, optional thresholding), deterministic
// seeding, per-phase timing, and an optional progress callback. Extract once
// per (solver, layout); issue as many requests as needed — or put a
// ModelCache (subspar/cache.hpp) in front so identical requests cost an
// apply instead of a re-extraction.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/extractor.hpp"
#include "geometry/quadtree.hpp"
#include "lowrank/row_basis.hpp"
#include "substrate/solver.hpp"
#include "subspar/status.hpp"
#include "util/cancel.hpp"

namespace subspar {

/// Invoked after each completed pipeline phase with the phase name and its
/// wall-clock seconds. Phases run on the calling thread.
using ProgressCallback = std::function<void(const std::string& phase, double seconds)>;

/// Everything that determines an extraction, in one value. `progress` and
/// `cancel` are observational only and excluded from cache keys.
struct ExtractionRequest {
  /// Which sparsification algorithm builds the change of basis Q.
  SparsifyMethod method = SparsifyMethod::kLowRank;
  /// Wavelet moment order (Chapter 3; the paper uses 2).
  int moment_order = 2;
  /// Low-rank options, including the deterministic sampling seed (Chapter 4).
  LowRankOptions lowrank;
  /// If > 1, additionally threshold G_w to ~this multiple of its
  /// conservative sparsity factor (the paper uses 6; §3.7 / §4.6). 0 = off.
  double threshold_sparsity_multiple = 0.0;
  /// Optional per-phase progress notifications.
  ProgressCallback progress;
  /// Optional cooperative cancellation/deadline token. The Extractor
  /// installs it for the duration of the pipeline and checks it at phase
  /// boundaries, at every black-box solve batch, and inside the pcg_block
  /// iteration loop; a tripped token surfaces as
  /// ErrorCode::kCancelled / kDeadlineExceeded. Observational only —
  /// excluded from cache keys, like `progress`.
  std::shared_ptr<CancelToken> cancel;
};

/// Validates a request; throws std::invalid_argument naming the offending
/// field. Called by Extractor::extract (and ModelCache) on every request.
void validate(const ExtractionRequest& request);

/// One completed pipeline phase, including the solver diagnostics the phase
/// accumulated (per-phase deltas of SolverDiagnostics). On a healthy run
/// `converged` is true and the retry/fallback counters are zero.
struct PhaseTiming {
  std::string phase;
  double seconds = 0.0;
  long solves = 0;  ///< black-box solves consumed by the phase
  long iterations = 0;  ///< inner PCG iterations spent inside the phase
  bool converged = true;  ///< false if any iterative attempt hit max_iterations
  long retries = 0;  ///< fallback-chain restarts (incl. tighter-precond restarts)
  long fallback_columns = 0;  ///< columns recovered by the dense direct fallback
  double worst_residual = 0.0;  ///< worst verified residual among recovered columns
};

/// Cache-event counters: per-request in ExtractionReport::cache (only the
/// fields touched by that request are nonzero), cumulative in
/// ModelCache::stats(). Hits include disk loads; disk_loads counts the
/// subset of hits served from the persist directory rather than memory.
struct CacheEvents {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t disk_loads = 0;
  std::size_t corruptions = 0;      ///< persisted files that failed load/validation
  std::size_t quarantines = 0;      ///< corrupt files renamed aside (.quarantined.N)
  std::size_t write_failures = 0;   ///< persist writes that failed (result still served)
  std::size_t evictions = 0;        ///< entries dropped by the LRU memory budget
};

/// Structured account of one extraction: what it cost and what it produced,
/// replacing printf side channels. `solves`/`seconds` are the cost of *this
/// request* (0 / lookup time for a cache hit); the sparsity and reduction
/// ratios always describe the returned model.
struct ExtractionReport {
  std::size_t n = 0;             ///< model dimension (number of contacts)
  long solves = 0;               ///< black-box solves consumed by this request
  double seconds = 0.0;          ///< wall-clock seconds of this request
  double gw_sparsity = 0.0;      ///< n^2 / nnz(G_w)
  double q_sparsity = 0.0;       ///< n^2 / nnz(Q)
  double solve_reduction = 0.0;  ///< n / solves that built the model
  bool from_cache = false;       ///< true when served by a ModelCache hit
  std::vector<PhaseTiming> phases;
  /// One line per degradation the pipeline recovered from (solver fallback
  /// chains, quarantined cache files). Empty on a healthy run — the model
  /// is within the method's error bound either way, these record *how* it
  /// got there.
  std::vector<std::string> fallbacks;
  /// Non-fatal advisories (e.g. columns that hit max_iterations but were
  /// recovered); also echoed to stderr as one-line warnings.
  std::vector<std::string> warnings;
  /// Retry history when the result was produced by the ExtractionService:
  /// one line per failed attempt that preceded the successful one (empty on
  /// a first-attempt success and on the direct Extractor path).
  std::vector<std::string> attempts;
  /// Cache events attributable to this request (all zero when no ModelCache
  /// was involved).
  CacheEvents cache;
  /// Active SIMD kernel backend ("scalar", "avx512", "neon") —
  /// provenance only: the backend never changes results beyond solver
  /// tolerance and is never part of cache keys.
  std::string backend;

  /// One-line human-readable digest.
  std::string summary() const;
};

/// The pipeline product: the model plus its report.
struct ExtractionResult {
  SparsifiedModel model;
  ExtractionReport report;
};

/// The extraction engine. Binds a black-box solver to a contact hierarchy
/// once (the quadtree build is shared by every request), then serves
/// ExtractionRequests.
class Extractor {
 public:
  /// Builds and owns the quadtree over `layout` (forwarding `max_level` to
  /// QuadTree). The solver and layout must outlive the Extractor.
  Extractor(const SubstrateSolver& solver, const Layout& layout, int max_level = -1);

  /// Borrows an existing quadtree (no rebuild); it must outlive the
  /// Extractor. Callers that time or reuse the tree build themselves (the
  /// table benches, perfbench's traced run) construct through this one.
  Extractor(const SubstrateSolver& solver, const QuadTree& tree);

  /// Runs the pipeline: validate -> method dispatch -> optional threshold.
  /// Deterministic for a fixed request (seeding comes from the request).
  /// Throws std::invalid_argument for an invalid request and
  /// ExtractionException (subspar/status.hpp) when every fallback in the
  /// recovery chain is exhausted; recovered degradations are reported via
  /// report.fallbacks instead of thrown.
  ExtractionResult extract(const ExtractionRequest& request = {}) const;

  /// Exception-free variant: runs the same pipeline but returns failures as
  /// a Status (kInvalidRequest / kSolverNonConvergence / kNumericalBreakdown
  /// / kInternal) instead of throwing. On success emplaces into *out and
  /// returns a success Status; on failure *out is reset.
  Status try_extract(const ExtractionRequest& request,
                     std::optional<ExtractionResult>* out) const;

  const SubstrateSolver& solver() const { return *solver_; }
  const QuadTree& tree() const { return *tree_; }
  /// Seconds spent building the owned quadtree (0 for a borrowed tree);
  /// kept out of per-request reports since the build is shared.
  double tree_build_seconds() const { return tree_seconds_; }

 private:
  ExtractionResult extract_impl(const ExtractionRequest& request) const;

  const SubstrateSolver* solver_;
  std::unique_ptr<QuadTree> owned_tree_;
  const QuadTree* tree_;
  double tree_seconds_ = 0.0;
};

}  // namespace subspar
