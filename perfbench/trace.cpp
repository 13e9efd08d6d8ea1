#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <thread>
#include <utility>

namespace perfbench {

using subspar::Matrix;
using subspar::SolverDiagnostics;
using subspar::Vector;

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void TraceSink::add(Span span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  span.tid = thread_id();
  spans_.push_back(std::move(span));
}

std::vector<Span> TraceSink::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

int TraceSink::thread_id() {
  const auto [it, inserted] =
      tids_.emplace(std::this_thread::get_id(), static_cast<int>(tids_.size()) + 1);
  return it->second;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

bool TraceSink::write_chrome(const std::string& path) const {
  const std::vector<Span> all = spans();
  double origin = all.empty() ? 0.0 : all.front().start;
  for (const Span& s : all) origin = std::min(origin, s.start);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"level%d\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"request\": \"%s\"",
                 json_escape(s.name).c_str(), s.level, s.tid, (s.start - origin) * 1e6,
                 s.seconds() * 1e6, json_escape(s.track).c_str());
    if (s.cols > 0)
      std::fprintf(f, ", \"cols\": %ld, \"pcg_iters\": %ld, \"fallback\": %ld", s.cols, s.iters,
                   s.fallback);
    std::fprintf(f, "}}%s\n", i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

subspar::ProgressCallback phase_recorder(TraceSink& sink, std::string track, int level) {
  return [&sink, track = std::move(track), level](const std::string& phase, double seconds) {
    const double end = now_s();
    sink.add(
        Span{.name = phase, .track = track, .level = level, .start = end - seconds, .end = end});
  };
}

TracingSolver::TracingSolver(const subspar::SubstrateSolver& inner, TraceSink& sink,
                             std::string track, int level)
    : inner_(inner), sink_(sink), track_(std::move(track)), level_(level) {}

Vector TracingSolver::do_solve(const Vector& v) const {
  Matrix one(v.size(), 1);
  one.set_col(0, v);
  return do_solve_many(one).col(0);
}

Matrix TracingSolver::do_solve_many(const Matrix& v) const {
  const SolverDiagnostics before = inner_.diagnostics();
  const double start = now_s();
  Matrix out = inner_.solve_many(v);
  const double end = now_s();
  const SolverDiagnostics& after = inner_.diagnostics();
  diag() = after;
  sink_.add(Span{.name = "solve-batch",
                 .track = track_,
                 .level = level_,
                 .start = start,
                 .end = end,
                 .cols = static_cast<long>(v.cols()),
                 .iters = after.iterations - before.iterations,
                 .fallback = (after.restarts - before.restarts) +
                             (after.direct_columns - before.direct_columns)});
  return out;
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::map<std::string, std::vector<std::size_t>> by_track;
  for (std::size_t i = 0; i < spans.size(); ++i) by_track[spans[i].track].push_back(i);
  std::vector<std::vector<std::pair<double, double>>> covered(spans.size());
  for (const auto& [track, ids] : by_track) {
    for (const std::size_t c : ids) {
      const Span& child = spans[c];
      const double mid = 0.5 * (child.start + child.end);
      std::size_t parent = spans.size();
      for (const std::size_t p : ids) {
        const Span& cand = spans[p];
        if (cand.level != child.level - 1 || cand.start > mid || cand.end < mid) continue;
        if (parent == spans.size() || cand.seconds() < spans[parent].seconds()) parent = p;
      }
      if (parent == spans.size()) continue;
      covered[parent].emplace_back(std::max(child.start, spans[parent].start),
                                   std::min(child.end, spans[parent].end));
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    double union_len = 0.0, run_start = 0.0, run_end = -1.0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (b <= a) continue;
      if (open && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (open) union_len += run_end - run_start;
      run_start = a;
      run_end = b;
      open = true;
    }
    if (open) union_len += run_end - run_start;
    self[i] = spans[i].seconds() - union_len;
  }
  return self;
}

}  // namespace perfbench
