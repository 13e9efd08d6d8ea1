// Public header: the structured error model of the extraction pipeline.
//
// Every failure mode the stack can hit — an iterative solver that never
// converges, numerical garbage (NaN/Inf) crossing a phase boundary, a
// corrupt or torn cache file, a transient IO error — maps to one ErrorCode,
// tagged with the pipeline phase it surfaced in and a human-readable detail
// string. Extractor::extract throws the typed ExtractionException;
// Extractor::try_extract returns the same information as a Status value for
// callers (job engines, services) that prefer error returns over exceptions.
//
// Recovered faults are NOT errors: the fallback chains (linalg/robust.hpp,
// the cache quarantine path) report what they did through
// ExtractionReport::fallbacks and the per-phase diagnostics, and the
// extraction still succeeds. An ExtractionError means every fallback was
// exhausted.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>

namespace subspar {

/// Failure taxonomy of the extraction stack.
enum class ErrorCode {
  kOk = 0,
  kInvalidRequest,        ///< request/option validation failed
  kSolverNonConvergence,  ///< iterative solve failed after every fallback
  kNumericalBreakdown,    ///< NaN/Inf crossed a phase boundary
  kCacheCorruption,       ///< persisted model failed integrity checks
  kIoError,               ///< file read/write failure
  kCancelled,             ///< cooperative cancellation via a CancelToken
  kDeadlineExceeded,      ///< per-request deadline expired mid-pipeline
  kOverloaded,            ///< service queue full; request shed at admission
  kInternal,              ///< invariant violation / unclassified failure
};

/// Stable short name of a code ("solver-non-convergence", ...).
const char* error_code_name(ErrorCode code);

/// One structured failure: what went wrong, where in the pipeline, and the
/// underlying detail (typically the inner exception's message).
struct ExtractionError {
  ErrorCode code = ErrorCode::kOk;
  std::string phase;   ///< pipeline phase ("validate", "row-basis", ...)
  std::string detail;  ///< underlying cause, human-readable

  /// "<code-name> in phase '<phase>': <detail>".
  std::string message() const;
};

/// The typed exception Extractor::extract throws on unrecoverable failure.
/// Derives from std::runtime_error so pre-existing catch sites keep working;
/// the structured payload is available via error().
class ExtractionException : public std::runtime_error {
 public:
  explicit ExtractionException(ExtractionError error)
      : std::runtime_error(error.message()), error_(std::move(error)) {}

  const ExtractionError& error() const { return error_; }
  ErrorCode code() const { return error_.code; }
  const std::string& phase() const { return error_.phase; }

 private:
  ExtractionError error_;
};

/// Error-return counterpart of ExtractionException: default-constructed is
/// success, otherwise carries the ExtractionError. Returned by
/// Extractor::try_extract.
class Status {
 public:
  Status() = default;  // success
  explicit Status(ExtractionError error) : error_(std::move(error)) {}

  bool ok() const { return error_.code == ErrorCode::kOk; }
  explicit operator bool() const { return ok(); }
  ErrorCode code() const { return error_.code; }
  const ExtractionError& error() const { return error_; }
  /// "ok" on success, ExtractionError::message() otherwise.
  std::string message() const;

 private:
  ExtractionError error_;
};

}  // namespace subspar
