// Outside-in tracing for the end-to-end benchmark: spans recorded from the
// benchmark's own code around the calls it makes into the library.
//
// Three kinds of span feed one in-memory sink:
//  * extraction / job spans, recorded by the workload code;
//  * phase spans, recorded from ExtractionRequest::progress (a phase ends at
//    its callback and starts `seconds` earlier);
//  * solve-batch spans, recorded by TracingSolver, a forwarding
//    SubstrateSolver that times every solve_many the pipeline issues and
//    carries the column count and the PCG-iteration delta of the inner
//    solver's diagnostics.
// The sink is written once, at exit, as Chrome trace-event JSON.
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "subspar/subspar.hpp"

namespace perfbench {

/// Seconds on the steady clock since an arbitrary fixed origin.
double now_s();

struct Span {
  std::string name;   ///< layer label: "extract", "row-basis", "solve-batch", ...
  std::string track;  ///< request id: spans of one extraction or job share it
  int level = 0;      ///< depth in the span tree (0 = extraction or job)
  double start = 0.0;
  double end = 0.0;
  long cols = 0;      ///< solve batches: columns solved
  long iters = 0;     ///< solve batches: PCG iterations spent
  long fallback = 0;  ///< solve batches: restarts plus direct-fallback columns
  int tid = 0;        ///< small id of the recording thread
  double seconds() const { return end - start; }
};

/// Thread-safe in-memory span store.
class TraceSink {
 public:
  void add(Span span);
  std::vector<Span> spans() const;
  /// Writes every span as Chrome trace-event JSON ("X" events, microseconds
  /// from the first span); Perfetto and chrome://tracing open it.
  bool write_chrome(const std::string& path) const;

 private:
  int thread_id();  // requires mutex_

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::thread::id, int> tids_;
};

/// Records one span per pipeline phase into `sink` under `track`.
subspar::ProgressCallback phase_recorder(TraceSink& sink, std::string track, int level = 1);

/// Forwards every call to `inner` and records one solve-batch span per
/// solve_many. The inner solver's diagnostics are copied into this
/// solver's, so the Extractor's per-phase report is unchanged.
class TracingSolver : public subspar::SubstrateSolver {
 public:
  TracingSolver(const subspar::SubstrateSolver& inner, TraceSink& sink, std::string track,
                int level = 2);

  std::size_t n_contacts() const override { return inner_.n_contacts(); }
  std::string name() const override { return inner_.name(); }
  std::string cache_tag() const override { return inner_.cache_tag(); }

 protected:
  subspar::Vector do_solve(const subspar::Vector& v) const override;
  subspar::Matrix do_solve_many(const subspar::Matrix& v) const override;

 private:
  const subspar::SubstrateSolver& inner_;
  TraceSink& sink_;
  std::string track_;
  int level_;
};

/// Per-span self time: duration minus the part covered by its children.
/// A span's parent is the shortest span one level up on the same track
/// whose interval contains the child's midpoint.
std::vector<double> self_seconds(const std::vector<Span>& spans);

}  // namespace perfbench
