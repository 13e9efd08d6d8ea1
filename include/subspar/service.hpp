// Public header: extraction-as-a-service — the concurrent job engine over
// the ModelCache.
//
// ExtractionService turns the synchronous single-client pipeline
// (subspar/extraction.hpp) into a server-grade front end: submit() accepts
// many concurrent ExtractionRequests and returns ExtractionJob handles; a
// fixed pool of worker threads drains a bounded queue behind them. The
// robustness semantics layered on top:
//
//  * In-flight deduplication. Jobs are keyed by the ModelCache content hash
//    (model_cache_key): the first requester extracts, later requesters of
//    the same key receive a handle to the SAME job and await its result —
//    N clients x M distinct layouts cost exactly M extractions. A job that
//    FAILS is not memoized: its key leaves the in-flight table, so a later
//    requester retries fresh instead of inheriting a stale failure.
//  * Deadlines + cooperative cancellation. Each submission may carry a
//    deadline and/or a caller-held CancelToken; the token is threaded
//    through the whole pipeline (phase boundaries, every solve batch, the
//    pcg_block inner loop) and trips as the typed
//    kDeadlineExceeded / kCancelled error codes. Cancelling any handle of a
//    deduplicated job cancels the shared job and releases every waiter.
//  * Retry with bounded exponential backoff + deterministic jitter. Errors
//    the failure model classifies as transient (error_is_transient) retry
//    up to RetryPolicy::max_attempts with base_backoff_ms * multiplier^k
//    sleeps, jittered by a seeded hash of (service seed, job key, attempt)
//    so a run replays identically. The attempt history rides in
//    ExtractionReport::attempts and ExtractionJob::attempt_history().
//  * Admission control + load shedding. The queue is bounded
//    (ServiceOptions::queue_capacity); a submit against a full queue is
//    fast-rejected with a terminal kOverloaded job instead of growing an
//    unbounded backlog. The shared ModelCache takes a memory budget with
//    LRU eviction (ServiceOptions::cache_memory_budget) so N clients x M
//    layouts cannot OOM the process.
//  * ServiceStats counters (accepted / deduped / shed / retried /
//    cancelled / deadline-expired / ...) surface the traffic the same way
//    CacheEvents surfaces cache health.
//
// Determinism: workers run each extraction inline on their own thread
// (ParallelInlineScope), which the thread pool guarantees is bit-identical
// to any SUBSPAR_THREADS schedule — a single-client service run produces
// the same model bits as the direct Extractor path, and fault-injected runs
// (SUBSPAR_FAULT, including the queue site 'q') replay by seed.
//
// Thread-safety preconditions inherited from the layers below: solvers are
// stateful (solve counters), so concurrently running jobs must hold
// DISTINCT solver instances. Deduplicated submissions may share one solver
// — only the job that extracts uses it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "subspar/cache.hpp"
#include "subspar/extraction.hpp"
#include "subspar/status.hpp"
#include "util/cancel.hpp"

namespace subspar {

/// True for error codes the service retries (transient by the PR 7 failure
/// model): kSolverNonConvergence, kCacheCorruption, kIoError.
bool error_is_transient(ErrorCode code);

/// Bounded exponential backoff: attempt k (1-based) that fails transiently
/// sleeps base_backoff_ms * multiplier^(k-1) * (1 + jitter) before attempt
/// k+1, where jitter in [0, 1) is a deterministic hash of (seed, job key,
/// k) — replayable, yet decorrelated across jobs.
struct RetryPolicy {
  int max_attempts = 3;          ///< total attempts (1 = no retry)
  double base_backoff_ms = 10.0;
  double multiplier = 2.0;
};

/// Lifecycle of a job handle. Queued -> Running -> one terminal state;
/// kShed is terminal at submit() time (admission rejection).
enum class JobStatus {
  kQueued,           ///< accepted, waiting for a worker
  kRunning,          ///< extracting (or backing off between attempts)
  kSucceeded,        ///< result() is available
  kFailed,           ///< error() carries the typed cause
  kCancelled,        ///< CancelToken tripped (error code kCancelled)
  kDeadlineExpired,  ///< deadline tripped (error code kDeadlineExceeded)
  kShed,             ///< rejected at admission (error code kOverloaded)
};
const char* job_status_name(JobStatus status);
bool job_status_terminal(JobStatus status);

/// Point-in-time view of a job (ExtractionJob::progress()).
struct JobProgress {
  JobStatus status = JobStatus::kQueued;
  std::string phase;  ///< last completed pipeline phase of the running attempt
  int attempts = 0;   ///< attempts started so far
};

/// Cumulative service counters (ExtractionService::stats()). accepted
/// counts jobs admitted to the queue (dedup attaches and sheds excluded);
/// every accepted job eventually lands in exactly one of succeeded /
/// failed / cancelled / deadline_expired.
struct ServiceStats {
  std::size_t accepted = 0;
  std::size_t deduped = 0;           ///< submissions attached to an in-flight job
  std::size_t shed = 0;              ///< fast-rejected on a full queue
  std::size_t retried = 0;           ///< extra attempts after a transient failure
  std::size_t cancelled = 0;
  std::size_t deadline_expired = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;            ///< terminal failures other than cancel/deadline
  std::size_t cache_hits = 0;        ///< jobs served by the ModelCache
  std::size_t queue_depth = 0;       ///< snapshot: jobs waiting for a worker
  std::size_t in_flight = 0;         ///< snapshot: keys admitted but not terminal
};

struct ServiceOptions {
  std::size_t workers = 2;          ///< worker threads (>= 1)
  std::size_t queue_capacity = 64;  ///< bounded queue; full => kOverloaded
  /// ModelCache memory budget in bytes (0 = unbounded; see
  /// ModelCache::set_memory_budget).
  std::size_t cache_memory_budget = 0;
  /// Optional ModelCache persist directory (empty = in-memory only).
  std::string persist_dir;
  RetryPolicy retry;                ///< default policy; per-submit override
  std::uint64_t backoff_jitter_seed = 0x5eed;
};

/// Per-submission knobs.
struct SubmitOptions {
  /// Wall-clock deadline from submission, in ms (0 = none). Expiry anywhere
  /// — queued, mid-solve, or during backoff — terminates the job with
  /// kDeadlineExceeded.
  double deadline_ms = 0.0;
  /// Caller-held cancellation token (one is created internally if absent).
  /// Cancelling it is equivalent to ExtractionJob::cancel().
  std::shared_ptr<CancelToken> cancel;
  /// Overrides the service-wide RetryPolicy for this job.
  std::optional<RetryPolicy> retry;
};

namespace detail {
struct JobState;
}

/// Shared handle to one submitted job (copyable; all copies — including
/// handles returned to deduplicated requesters — observe the same job).
class ExtractionJob {
 public:
  ExtractionJob() = default;  ///< empty handle; valid() == false

  bool valid() const { return state_ != nullptr; }
  /// The ModelCache content hash the job is deduplicated under.
  const std::string& key() const;

  /// Blocks until the job is terminal; returns the final Status (ok on
  /// success, the typed ExtractionError otherwise).
  Status wait() const;
  /// Blocks up to `ms`; true iff the job reached a terminal state.
  bool wait_for(double ms) const;

  /// Requests cooperative cancellation (idempotent; affects every handle of
  /// a deduplicated job). The job lands in kCancelled unless it already
  /// reached another terminal state.
  void cancel() const;

  JobStatus status() const;
  JobProgress progress() const;

  /// Terminal accessors. result() requires status() == kSucceeded; error()
  /// is kOk until the job terminally fails.
  const ExtractionResult& result() const;
  ExtractionError error() const;
  /// One line per failed attempt ("attempt 1: io-error in ...").
  std::vector<std::string> attempt_history() const;

 private:
  friend class ExtractionService;
  explicit ExtractionJob(std::shared_ptr<detail::JobState> state);

  std::shared_ptr<detail::JobState> state_;
};

class ExtractionService {
 public:
  explicit ExtractionService(ServiceOptions options = {});
  /// Drains nothing: shutdown() — queued jobs are cancelled, the running
  /// ones finish their current cancellation window.
  ~ExtractionService();
  ExtractionService(const ExtractionService&) = delete;
  ExtractionService& operator=(const ExtractionService&) = delete;

  /// Submits an extraction. Never throws on admission: an invalid request,
  /// a full queue, or a stopped service all come back as an
  /// immediately-terminal job carrying the typed error. The solver is held
  /// alive by the job (shared_ptr) and must match (layout, stack) exactly
  /// as in ModelCache::get_or_extract.
  ExtractionJob submit(std::shared_ptr<const SubstrateSolver> solver, const Layout& layout,
                       const SubstrateStack& stack, ExtractionRequest request = {},
                       SubmitOptions options = {});

  /// Stops accepting work, cancels queued jobs (kCancelled), lets running
  /// attempts trip their cancellation points, and joins the workers.
  /// Idempotent; called by the destructor.
  void shutdown();

  ServiceStats stats() const;
  ModelCache& cache();
  const ServiceOptions& options() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace subspar
