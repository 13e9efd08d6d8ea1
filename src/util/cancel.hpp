// Cooperative cancellation and deadlines for long-running extractions.
//
// A CancelToken is a tiny shared flag (+ optional absolute deadline) that a
// client thread flips while an extraction runs on another thread. The
// extraction side never polls the token directly: the Extractor installs the
// request's token into a thread-local CancelScope for the duration of the
// pipeline, and the long loops deep in the stack (pcg_block iterations,
// every black-box solve_many batch) call cancellation_point(), which is a
// single thread-local load when no token is installed — the uncancellable
// fast path costs nothing measurable.
//
// Cancellation and deadline expiry surface as the typed exceptions below;
// Extractor::extract maps them to ErrorCode::kCancelled /
// kDeadlineExceeded (subspar/status.hpp). Checks never perturb numerics:
// a run that is not cancelled is bit-identical to one with no token at all.
//
// Static-analysis note: this module is deliberately lock-free — every shared
// member is a std::atomic with acquire/release ordering, so there is no
// capability to annotate (util/sync.hpp). Waiting on a token (service
// backoff) pairs the atomic reads with a CondVar under the job mutex; the
// notify side must hold that mutex — see ExtractionJob::cancel().
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace subspar {

/// Thrown at a cancellation point after CancelToken::cancel(); mapped to
/// ErrorCode::kCancelled by the Extractor.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(const std::string& where)
      : std::runtime_error("cancelled at '" + where + "'"), where_(where) {}
  const std::string& where() const { return where_; }

 private:
  std::string where_;
};

/// Thrown at a cancellation point once the token's deadline has passed;
/// mapped to ErrorCode::kDeadlineExceeded by the Extractor.
class DeadlineExceededError : public std::runtime_error {
 public:
  explicit DeadlineExceededError(const std::string& where)
      : std::runtime_error("deadline exceeded at '" + where + "'"), where_(where) {}
  const std::string& where() const { return where_; }

 private:
  std::string where_;
};

/// Shared cancellation flag + optional deadline. All members are lock-free
/// and safe to call from any thread; the token outlives the extraction via
/// shared_ptr ownership (ExtractionRequest::cancel, ExtractionJob).
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cooperative cancellation; idempotent.
  void cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }

  /// Arms an absolute deadline `ms` milliseconds from now (steady clock).
  /// ms <= 0 arms an already-expired deadline.
  void set_deadline_after_ms(double ms);
  bool has_deadline() const { return deadline_ns_.load(std::memory_order_acquire) != 0; }
  bool deadline_expired() const;
  /// Milliseconds until the deadline (negative once expired); a very large
  /// value when no deadline is armed.
  double remaining_ms() const;

  /// Throws CancelledError / DeadlineExceededError if the token demands it;
  /// `where` names the checkpoint for the error message.
  void check(const char* where) const;

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<std::int64_t> deadline_ns_{0};  // steady_clock ns since epoch; 0 = none
};

/// RAII installer of the calling thread's active token. Scopes nest (the
/// previous token is restored on destruction); the token may be null, which
/// makes every cancellation_point in the scope a no-op.
class CancelScope {
 public:
  explicit CancelScope(const CancelToken* token);
  ~CancelScope();
  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  const CancelToken* previous_;
};

/// The token installed on the calling thread (nullptr outside any scope).
const CancelToken* current_cancel_token();

/// Checkpoint: throws the typed cancellation/deadline error when the
/// thread's installed token demands it; a single thread-local load
/// otherwise. Safe to call from tight loops.
void cancellation_point(const char* where);

}  // namespace subspar
