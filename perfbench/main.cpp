// End-to-end benchmark of subspar through its public API.
//
// One process runs one workload (see README.md for why each exists):
//   lowrank-surface-256   Ch. 4 low-rank, paper Ex. 1b grid, surface solver
//   wavelet-surface-1024  Ch. 3 wavelet, paper Ex. 1 grid, surface solver
//   wavelet-fd-256        Ch. 3 wavelet, 16 x 16 contacts, FD solver
//   service-mix           closed-loop clients over one ExtractionService
//
// Untraced (--trace 0) it times the workload, checks every output and prints
// the end-to-end metrics. Traced (--trace 1) it measures every layer from
// outside: phases through ExtractionRequest::progress, solve batches through
// a forwarding solver, the row-basis representation through
// RowBasisRep::apply and the model through SparseMatrix::apply/apply_t. The
// last line of stdout is one JSON object with every metric measured;
// perfbench/run.py selects the ones BENCHMARK.json names.
#include <sched.h>
#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "metrics.hpp"
#include "refclock.hpp"
#include "subspar/subspar.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace subspar;

// Timed work runs on one thread: on a shared VM, steal stays at 1-2% with
// one busy vCPU but reaches 15-30% once more are busy, and a second pool
// thread adds CPU time of its own (wavelet-surface-1024 on a quiet host:
// 1.75 s at two threads, 1.63 s at one). The traced run adds one n = 256
// extraction at kScalingThreads for the *_speedup metrics.
constexpr std::size_t kThreads = 1;
constexpr std::size_t kScalingThreads = 2;
// Set-up runs kSetupReps times before timing, then for kSetupSliceS after
// each timed operation: its cost follows the host's state, which changes
// every few seconds, so its median needs samples from the whole run.
constexpr std::size_t kSetupReps = 21;
constexpr double kSetupSliceS = 0.1;

constexpr double kRefRelTol = 1e-5;
constexpr double kApplyRelTol = 1e-2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool write_refs = false;
  std::string commit = "unknown";
  std::string refs_dir = "perfbench/refs";
  std::string trace_out;
};

// ---------------------------------------------------------------------------
// Process context and resource readings
// ---------------------------------------------------------------------------

struct CpuTicks {
  unsigned long long steal = 0;
  unsigned long long total = 0;
};

CpuTicks read_cpu_ticks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  for (int i = 0; i < 8; ++i) {  // user nice system idle iowait irq softirq steal
    unsigned long long v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double load_average() {
  std::ifstream in("/proc/loadavg");
  double v = -1.0;
  in >> v;
  return v;
}

/// CPU seconds of the process (all threads) or of the calling thread. On
/// a shared VM the kernel accounts steal separately, so CPU time stays steady
/// where wall time does not (see README.md, "Noise").
double clock_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
double cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

/// Pins the process, and every thread it starts later, to the vCPU it runs
/// on, so the reference loop and the timed work share one core (a traced
/// run needs kScalingThreads vCPUs and is not pinned). Returns the vCPU, or
/// -1 if pinning failed.
int pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

/// Peak resident set of the process less the reference loop's buffer, which
/// every run allocates before its workload and keeps.
double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  // ru_maxrss is in KiB on Linux.
  return static_cast<double>(u.ru_maxrss) / 1024.0 - static_cast<double>(kReferenceBufferMb);
}

// ---------------------------------------------------------------------------
// Correctness bookkeeping
// ---------------------------------------------------------------------------

/// Operations attempted and failed; a failed check counts as a failure.
struct Checks {
  long attempted = 0;
  long failed = 0;
  bool ok = true;

  void fail(const std::string& what, long operations = 1) {
    std::printf("CHECK FAILED: %s\n", what.c_str());
    failed += operations;
    ok = false;
  }
};

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

std::uint64_t sparse_hash(std::uint64_t h, const SparseMatrix& a) {
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const std::size_t end = a.row_end(i);
    h = fnv(h, &end, sizeof end);
    for (std::size_t k = a.row_begin(i); k < end; ++k) {
      const std::size_t col = a.col_index(k);
      const double val = a.value(k);
      h = fnv(h, &col, sizeof col);
      h = fnv(h, &val, sizeof val);
    }
  }
  return h;
}

/// Bit-level digest of a model's Q and G_w.
std::uint64_t model_hash(const SparsifiedModel& m) {
  return sparse_hash(sparse_hash(0xcbf29ce484222325ULL, m.q()), m.gw());
}

// ---------------------------------------------------------------------------
// Exact columns, reference columns and the model checks
// ---------------------------------------------------------------------------

/// The untimed warm-up batch: the exact columns that score max_rel_err plus
/// one seeded voltage vector for the apply check, solved in one solve_many.
struct ExactColumns {
  std::vector<std::size_t> ids;
  Matrix cols;  // n x ids.size()
  Vector v;
  Vector gv;
};

ExactColumns solve_exact(const SubstrateSolver& solver, std::uint64_t seed) {
  const std::size_t n = solver.n_contacts();
  ExactColumns e;
  e.ids = sample_columns(n, 0.1);
  const std::size_t k = e.ids.size();
  Matrix x(n, k + 1);
  for (std::size_t j = 0; j < k; ++j) x(e.ids[j], j) = 1.0;
  Rng rng(seed);
  e.v = Vector(n);
  for (std::size_t i = 0; i < n; ++i) x(i, k) = e.v[i] = rng.uniform(-0.5, 0.5);
  const Matrix g = solver.solve_many(x);
  e.cols = Matrix(n, k);
  for (std::size_t j = 0; j < k; ++j) e.cols.set_col(j, g.col(j));
  e.gv = g.col(k);
  return e;
}

std::string ref_path(const Options& o, const char* solver, int grid) {
  return o.refs_dir + "/" + solver + "-grid" + std::to_string(grid) + ".txt";
}

/// First, middle and last column of the exact sample.
std::vector<std::size_t> ref_positions(const ExactColumns& e) {
  return {0, e.ids.size() / 2, e.ids.size() - 1};
}

void write_refs(const std::string& path, const ExactColumns& e) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  const auto pos = ref_positions(e);
  std::fprintf(f, "%zu %zu\n", e.cols.rows(), pos.size());
  for (const std::size_t p : pos) {
    std::fprintf(f, "%zu", e.ids[p]);
    for (std::size_t i = 0; i < e.cols.rows(); ++i) std::fprintf(f, " %.17g", e.cols(i, p));
    std::fprintf(f, "\n");
  }
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

/// The solver gate: the sampled columns must match the committed reference
/// columns to kRefRelTol (max-norm relative), so a solver cannot get faster
/// by loosening its tolerance.
void check_refs(const std::string& path, const ExactColumns& e, Checks& checks) {
  std::ifstream in(path);
  std::size_t n = 0, count = 0;
  if (!(in >> n >> count) || n != e.cols.rows() || count == 0) {
    checks.fail("reference columns missing or malformed: " + path);
    return;
  }
  for (std::size_t c = 0; c < count; ++c) {
    std::size_t id = 0;
    in >> id;
    Vector ref(n);
    for (std::size_t i = 0; i < n; ++i) in >> ref[i];
    std::size_t pos = e.ids.size();
    for (std::size_t p = 0; p < e.ids.size(); ++p)
      if (e.ids[p] == id) pos = p;
    if (!in || pos == e.ids.size()) {
      checks.fail("reference column " + std::to_string(id) + " unreadable in " + path);
      return;
    }
    double diff = 0.0, scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      diff = std::max(diff, std::abs(e.cols(i, pos) - ref[i]));
      scale = std::max(scale, std::abs(ref[i]));
    }
    if (!(diff <= kRefRelTol * scale)) {
      std::ostringstream msg;
      msg << "solver column " << id << " differs from " << path << " by " << diff / scale
          << " (relative; limit " << kRefRelTol << ")";
      checks.fail(msg.str());
    }
  }
}

/// max_rel_error_significant of Q G_w Q' on the exact sample, after the
/// quickstart's apply check; a failed apply check returns NaN.
double score_model(const SparsifiedModel& model, const ExactColumns& e, Checks& checks) {
  const Vector fast = model.apply(e.v);
  const double rel = norm2(fast - e.gv) / norm2(e.gv);
  if (!(rel < kApplyRelTol)) {
    std::ostringstream msg;
    msg << "apply check |fast - exact| / |exact| = " << rel << " exceeds " << kApplyRelTol;
    checks.fail(msg.str());
    return std::nan("");
  }
  return reconstruction_error(model.q(), model.gw(), e.cols, e.ids).max_rel_error_significant;
}

// ---------------------------------------------------------------------------
// Model-side timings
// ---------------------------------------------------------------------------

volatile double g_sink = 0.0;  // keeps timed results observable

/// Median calls per thread-CPU second of `fn` over `chunks` chunks of
/// >= chunk_s CPU seconds each.
std::pair<double, long> call_rate(const std::function<void()>& fn, int chunks, double chunk_s) {
  std::vector<double> rates;
  long total = 0;
  for (int c = 0; c < chunks; ++c) {
    long calls = 0;
    const double t0 = thread_cpu_seconds();
    double t = 0.0;
    do {
      fn();
      ++calls;
      t = thread_cpu_seconds() - t0;
    } while (t < chunk_s);
    rates.push_back(static_cast<double>(calls) / t);
    total += calls;
  }
  return {median(rates), total};
}

/// Computed bytes one CSR product moves: values, column indices and row
/// pointers of A, plus one read of x and one write of y (8-byte words).
double spmv_bytes(const SparseMatrix& a) {
  return 16.0 * static_cast<double>(a.nnz()) + 8.0 * static_cast<double>(a.rows() + 1) +
         8.0 * static_cast<double>(a.rows() + a.cols());
}

void put_model_layers(MetricSet& m, const SparsifiedModel& model, const Vector& v) {
  const SparseMatrix& q = model.q();
  const SparseMatrix& gw = model.gw();
  const Vector a = q.apply_t(v);
  const Vector b = gw.apply(a);
  m.put("core.q_nnz", static_cast<double>(q.nnz()), "count");
  m.put("core.gw_nnz", static_cast<double>(gw.nnz()), "count");
  const auto qt = call_rate([&] { g_sink = q.apply_t(v)[0]; }, 5, 0.04);
  const auto gwr = call_rate([&] { g_sink = gw.apply(a)[0]; }, 5, 0.04);
  const auto qr = call_rate([&] { g_sink = q.apply(b)[0]; }, 5, 0.04);
  m.put("linalg.spmv_qt_us", 1e6 / qt.first, "us", qt.second);
  m.put("linalg.spmv_gw_us", 1e6 / gwr.first, "us", gwr.second);
  m.put("linalg.spmv_q_us", 1e6 / qr.first, "us", qr.second);
  m.put("linalg.spmv_qt_bytes", spmv_bytes(q), "B");
  m.put("linalg.spmv_gw_bytes", spmv_bytes(gw), "B");
  m.put("linalg.spmv_q_bytes", spmv_bytes(q), "B");
}

/// Median ms of RowBasisRep::apply on up to 16 evenly spaced columns of the
/// low-rank basis, the call gw-fill makes once per basis column.
std::pair<double, long> time_rep_apply(const SubstrateSolver& solver, const QuadTree& tree,
                                       const LowRankOptions& options) {
  const RowBasisRep rep(solver, tree, options);
  const LowRankBasis basis(rep);
  const std::size_t n = basis.n();
  const std::size_t samples = std::min<std::size_t>(16, n);
  std::vector<double> ms;
  for (std::size_t s = 0; s < samples; ++s) {
    const Vector col = basis.column_vector(s * n / samples);
    const double t0 = now_s();
    g_sink = rep.apply(col)[0];
    ms.push_back(1e3 * (now_s() - t0));
  }
  return {median(ms), static_cast<long>(n)};
}

// ---------------------------------------------------------------------------
// Span summaries
// ---------------------------------------------------------------------------

struct LayerTime {
  double seconds = 0.0;
  double self = 0.0;
};

/// Total and self seconds per span name on one track.
std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans,
                                             const std::vector<double>& self,
                                             const std::string& track) {
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].track != track) continue;
    out[spans[i].name].seconds += spans[i].seconds();
    out[spans[i].name].self += self[i];
  }
  return out;
}

struct SolveTotals {
  long batches = 0, cols = 0, iters = 0, fallback = 0;
  double seconds = 0.0;
};

SolveTotals solve_totals(const std::vector<Span>& spans, const std::string& track) {
  SolveTotals t;
  for (const Span& s : spans) {
    if (s.name != "solve-batch" || (!track.empty() && s.track != track)) continue;
    ++t.batches;
    t.cols += s.cols;
    t.iters += s.iters;
    t.fallback += s.fallback;
    t.seconds += s.seconds();
  }
  return t;
}

void put_solve_layers(MetricSet& m, const SolveTotals& t, double extractions) {
  m.put("substrate.solve_batches", static_cast<double>(t.batches) / extractions, "count");
  m.put("substrate.solve_cols", static_cast<double>(t.cols) / extractions, "count");
  m.put("substrate.cols_per_batch",
        t.batches ? static_cast<double>(t.cols) / static_cast<double>(t.batches) : 0.0, "ratio");
  m.put("substrate.solve_s", t.seconds / extractions, "s", t.batches);
  m.put("substrate.ms_per_col", t.cols ? 1e3 * t.seconds / static_cast<double>(t.cols) : 0.0,
        "ms", t.cols);
  m.put("substrate.pcg_iters", static_cast<double>(t.iters) / extractions, "count");
  m.put("substrate.fallback_cols", static_cast<double>(t.fallback) / extractions, "count");
}

/// Per-name totals and self times over the spans of `track` (every track
/// if empty), printed as the traced run's layer table.
void print_self_table(const std::vector<Span>& spans, const std::vector<double>& self,
                      const std::string& track = "") {
  std::map<std::string, std::pair<LayerTime, long>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!track.empty() && spans[i].track != track) continue;
    auto& [lt, count] = by_name[spans[i].name];
    lt.seconds += spans[i].seconds();
    lt.self += self[i];
    ++count;
  }
  std::printf("span self time (%s)\n  %-18s %8s %12s %12s\n",
              track.empty() ? "all tracks" : track.c_str(), "span", "count", "total_s", "self_s");
  for (const auto& [name, entry] : by_name)
    std::printf("  %-18s %8ld %12.4f %12.4f\n", name.c_str(), entry.second, entry.first.seconds,
                entry.first.self);
}

double exponent(double big, double small, double n_big, double n_small) {
  return big > 0.0 && small > 0.0 ? std::log(big / small) / std::log(n_big / n_small) : 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The method-specific phase metrics. A workload that does not run a method
/// reports its metrics as 0.
struct PhaseRow {
  std::map<std::string, LayerTime> phases;
  double extract_s = 0.0;
  double get(const char* name) const {
    const auto it = phases.find(name);
    return it == phases.end() ? 0.0 : it->second.seconds;
  }
  double self(const char* name) const {
    const auto it = phases.find(name);
    return it == phases.end() ? 0.0 : it->second.self;
  }
};

/// The traced run's scaling rows: n = 1024 and n = 256 at one thread (the
/// *_exp metrics) and n = 256 at kScalingThreads (the *_speedup metrics).
struct ScalingRows {
  const PhaseRow* n1024 = nullptr;
  const PhaseRow* n256 = nullptr;
  const PhaseRow* n256_threads = nullptr;
};

void put_phase_layers(MetricSet& m, const PhaseRow& main, const ScalingRows& rows) {
  const auto exp_of = [&](const char* phase) {
    return rows.n1024 && rows.n256
               ? exponent(rows.n1024->get(phase), rows.n256->get(phase), 1024.0, 256.0)
               : 0.0;
  };
  const auto speedup_of = [&](const char* phase) {
    return rows.n256 && rows.n256_threads
               ? ratio(rows.n256->get(phase), rows.n256_threads->get(phase))
               : 0.0;
  };
  m.put("lowrank.row_basis_s", main.get("row-basis"), "s");
  m.put("lowrank.row_basis_self_s", main.self("row-basis"), "s");
  m.put("lowrank.fine_to_coarse_s", main.get("fine-to-coarse"), "s");
  m.put("lowrank.gw_fill_s", main.get("gw-fill"), "s");
  m.put("lowrank.row_basis_share", ratio(main.get("row-basis"), main.extract_s), "ratio");
  m.put("lowrank.row_basis_self_share", ratio(main.self("row-basis"), main.extract_s), "ratio");
  m.put("lowrank.gw_fill_share", ratio(main.get("gw-fill"), main.extract_s), "ratio");
  m.put("lowrank.gw_fill_exp", exp_of("gw-fill"), "ratio");
  m.put("lowrank.row_basis_exp", exp_of("row-basis"), "ratio");
  m.put("lowrank.gw_fill_speedup", speedup_of("gw-fill"), "ratio");
  m.put("lowrank.row_basis_speedup", speedup_of("row-basis"), "ratio");
  m.put("wavelet.basis_s", main.get("wavelet-basis"), "s");
  m.put("wavelet.combine_s", main.get("combine-extract"), "s");
  m.put("wavelet.combine_self_s", main.self("combine-extract"), "s");
  m.put("wavelet.combine_share", ratio(main.get("combine-extract"), main.extract_s), "ratio");
  m.put("wavelet.combine_self_share", ratio(main.self("combine-extract"), main.extract_s),
        "ratio");
  m.put("wavelet.combine_exp", exp_of("combine-extract"), "ratio");
  m.put("wavelet.combine_speedup", speedup_of("combine-extract"), "ratio");
}

// ---------------------------------------------------------------------------
// Extraction workloads
// ---------------------------------------------------------------------------

struct ExtractionWorkload {
  const char* name;
  SparsifyMethod method;
  SolverKind kind;
  int grid;      // contacts per side
  double panel;  // panel size of regular_grid_layout
  // The traced run's companion size for the *_exp metrics (0: none).
  int companion_grid;
  double companion_panel;
};

// Each timed extraction takes 1-2 CPU seconds on a quiet host, so a run
// holds ten or more.
// lowrank at n = 1024 (~19 s) is traced as the companion of n = 256 only.
// The FD layout uses 1.0 panels: with the default grid_h = 2 its grid has
// ~20k nodes (each contact one top node) instead of ~82k at 2.0 panels,
// and it keeps the paper Ex. 1b wavelet structure (186 solves).
const ExtractionWorkload kExtractionWorkloads[] = {
    {"lowrank-surface-256", SparsifyMethod::kLowRank, SolverKind::kSurface, 16, 2.0, 32, 1.0},
    {"wavelet-surface-1024", SparsifyMethod::kWavelet, SolverKind::kSurface, 32, 1.0, 16, 2.0},
    {"wavelet-fd-256", SparsifyMethod::kWavelet, SolverKind::kFd, 16, 1.0, 0, 0.0},
};

/// Paper Ex. 1b's grounded three-layer stack for the FD solver; the paper's
/// stack with the floating-backplane emulation layer for the surface solver.
SubstrateStack workload_stack(const ExtractionWorkload& w) {
  if (w.kind == SolverKind::kFd)
    return SubstrateStack({{2.0, 1.0}, {36.0, 100.0}, {2.0, 0.1}}, Backplane::kGrounded);
  return paper_stack(40.0, 0.5, 1.0);
}

/// make_solver plus Extractor construction, timed each time it runs.
/// `total` is process CPU seconds, `construct` and `tree` wall seconds.
struct Setup {
  std::unique_ptr<SubstrateSolver> solver;
  std::unique_ptr<Extractor> extractor;
  std::vector<double> total, construct, tree;

  void build(SolverKind kind, const Layout& layout, const SubstrateStack& stack) {
    const double cpu0 = cpu_seconds();
    const double t0 = now_s();
    solver = make_solver(kind, layout, stack);
    const double t1 = now_s();
    extractor = std::make_unique<Extractor>(*solver, layout);
    total.push_back(cpu_seconds() - cpu0);
    construct.push_back(t1 - t0);
    tree.push_back(extractor->tree_build_seconds());
  }
};

/// kSetupReps set-ups; the last pair is kept.
Setup set_up(SolverKind kind, const Layout& layout, const SubstrateStack& stack) {
  Setup s;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    s.extractor.reset();
    s.solver.reset();
    s.build(kind, layout, stack);
  }
  return s;
}

/// Set-ups for kSetupSliceS, their times added to `s`; what they build is
/// discarded, so `s` keeps extracting with the same solver.
void set_up_slice(Setup& s, SolverKind kind, const Layout& layout, const SubstrateStack& stack) {
  for (const double start = now_s(); now_s() - start < kSetupSliceS;) {
    Setup scratch;
    scratch.build(kind, layout, stack);
    s.total.push_back(scratch.total[0]);
    s.construct.push_back(scratch.construct[0]);
    s.tree.push_back(scratch.tree[0]);
  }
}

/// Untimed solve batch at least as wide as the pool, so a solver seen for
/// the first time (or a resized pool) builds its per-thread state here.
void warm_up(const SubstrateSolver& solver) {
  Matrix x(solver.n_contacts(), thread_count() + 1, 0.0);
  for (std::size_t j = 0; j < x.cols(); ++j) x(j, j) = 1.0;
  g_sink = solver.solve_many(x)(0, 0);
}

struct TracedExtraction {
  ExtractionResult result;
  double seconds;  // wall
  double cpu;      // process CPU
};

/// One traced extraction on `track`: extraction span, phase spans and
/// solve-batch spans.
TracedExtraction traced_extract(const SubstrateSolver& solver, const QuadTree& tree,
                                ExtractionRequest request, TraceSink& sink,
                                const std::string& track) {
  const TracingSolver traced(solver, sink, track);
  const Extractor extractor(traced, tree);
  request.progress = phase_recorder(sink, track);
  const double cpu0 = cpu_seconds();
  const double t0 = now_s();
  ExtractionResult r = extractor.extract(request);
  const double t1 = now_s();
  sink.add(Span{.name = "extract", .track = track, .level = 0, .start = t0, .end = t1});
  return {std::move(r), t1 - t0, cpu_seconds() - cpu0};
}

int run_extraction(const ExtractionWorkload& w, const Options& o, MetricSet& m,
                   Checks& checks) {
  const Layout layout = regular_grid_layout(w.grid, w.panel);
  const SubstrateStack stack = workload_stack(w);
  const std::string refs = ref_path(o, solver_kind_name(w.kind), w.grid);
  Setup su = set_up(w.kind, layout, stack);
  const SubstrateSolver& solver = *su.solver;
  const std::size_t n = layout.n_contacts();
  const ExactColumns exact = solve_exact(solver, o.seed);  // the warm-up batch
  if (o.write_refs) {
    write_refs(refs, exact);
    return 0;
  }
  check_refs(refs, exact, checks);
  const ExtractionRequest request{.method = w.method};

  if (!o.trace) {
    std::vector<double> times, cpu;
    std::optional<ExtractionResult> first;
    RefClock clock;
    clock.tick();
    const double start = now_s();
    do {
      ++checks.attempted;
      try {
        const double cpu0 = cpu_seconds();
        const double t0 = now_s();
        ExtractionResult r = su.extractor->extract(request);
        times.push_back(now_s() - t0);
        cpu.push_back(cpu_seconds() - cpu0);
        if (!first) {
          first = std::move(r);
        } else if (r.report.solves != first->report.solves ||
                   r.model.q().nnz() != first->model.q().nnz() ||
                   r.model.gw().nnz() != first->model.gw().nnz()) {
          checks.fail("solves or nnz differ between repetitions");
        }
      } catch (const std::exception& e) {
        checks.fail(std::string("extract threw: ") + e.what());
      }
      clock.tick();
      set_up_slice(su, w.kind, layout, stack);
      clock.tick();
    } while (now_s() - start < o.seconds);
    if (!first) return 1;
    const SparsifiedModel& model = first->model;
    const double err = score_model(model, exact, checks);
    const auto apply = call_rate([&] { g_sink = model.apply(exact.v)[0]; }, 9, 0.05);
    m.put("extract_ref_s", median(cpu) * clock.scale_mean(), "s", static_cast<long>(cpu.size()));
    m.put("extract_cpu_s", median(cpu), "s", static_cast<long>(cpu.size()));
    m.put("extract_s", median(times), "s", static_cast<long>(times.size()));
    m.put("ref_speed", clock.scale_mean(), "ratio", static_cast<long>(clock.ticks()));
    m.put("solves", static_cast<double>(first->report.solves), "count");
    m.put("max_rel_err", err, "ratio", static_cast<long>(exact.ids.size()));
    m.put("gw_sparsity", model.gw_sparsity_factor(), "ratio");
    m.put("apply_cols_per_s", apply.first, "1/s", apply.second);
    m.put("setup_s", median(su.total) * clock.scale_median(), "s",
          static_cast<long>(su.total.size()));
    m.put("setup_cpu_s", median(su.total), "s", static_cast<long>(su.total.size()));
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m.put("fail_frac", ratio(static_cast<double>(std::min(checks.failed, checks.attempted)),
                             static_cast<double>(checks.attempted)), "ratio",
          checks.attempted);
    return 0;
  }

  // Traced run, at kThreads like the timed run: the extraction untraced (a
  // warm-up: a process's first extraction runs 4-8% slower than later ones),
  // traced, and untraced again, so util.trace_overhead compares the traced
  // extraction with the untraced twin after it, in CPU time. Then the
  // scaling rows: the companion size traced (the *_exp metrics) and n = 256
  // traced at kScalingThreads (the *_speedup metrics).
  TraceSink sink;
  checks.attempted += 3;
  const ExtractionResult plain = su.extractor->extract(request);
  const std::string main_track = "n" + std::to_string(n) + "-1t";
  const TracedExtraction traced =
      traced_extract(solver, su.extractor->tree(), request, sink, main_track);
  const double cpu0 = cpu_seconds();
  const double t0 = now_s();
  const ExtractionResult twin = su.extractor->extract(request);
  const double twin_s = now_s() - t0;
  const double twin_cpu = cpu_seconds() - cpu0;
  if (model_hash(traced.result.model) != model_hash(twin.model))
    checks.fail("traced model differs from the untraced model");
  score_model(traced.result.model, exact, checks);

  // The companion outlives its solver and tree.
  const Layout companion_layout = w.companion_grid
                                      ? regular_grid_layout(w.companion_grid, w.companion_panel)
                                      : layout;
  std::unique_ptr<SubstrateSolver> companion_solver;
  std::unique_ptr<QuadTree> companion_tree;
  std::string companion_track;
  std::uint64_t companion_hash = 0;
  if (w.companion_grid) {
    companion_solver = make_solver(w.kind, companion_layout, stack);
    companion_tree = std::make_unique<QuadTree>(companion_layout);
    companion_track = "n" + std::to_string(companion_layout.n_contacts()) + "-1t";
    warm_up(*companion_solver);
    ++checks.attempted;
    companion_hash = model_hash(
        traced_extract(*companion_solver, *companion_tree, request, sink, companion_track)
            .result.model);
  }
  const bool main_is_256 = n == 256;
  const std::string& track256 = main_is_256 ? main_track : companion_track;
  set_thread_count(kScalingThreads);
  warm_up(main_is_256 ? solver : *companion_solver);
  ++checks.attempted;
  const TracedExtraction threads256 =
      main_is_256 ? traced_extract(solver, su.extractor->tree(), request, sink, "n256-2t")
                  : traced_extract(*companion_solver, *companion_tree, request, sink, "n256-2t");
  set_thread_count(kThreads);
  if (model_hash(threads256.result.model) !=
      (main_is_256 ? model_hash(twin.model) : companion_hash))
    checks.fail("n = 256 model differs between 1 and " + std::to_string(kScalingThreads) +
                " threads");

  const std::vector<Span> spans = sink.spans();
  const std::vector<double> self = self_seconds(spans);
  const PhaseRow main_row{layer_times(spans, self, main_track), traced.seconds};
  const PhaseRow companion_row{layer_times(spans, self, companion_track)};
  const PhaseRow row256{layer_times(spans, self, track256)};
  const PhaseRow row256_threads{layer_times(spans, self, "n256-2t")};
  ScalingRows rows{.n256 = &row256, .n256_threads = &row256_threads};
  if (w.companion_grid) rows.n1024 = main_is_256 ? &companion_row : &main_row;

  m.put("geometry.tree_s", median(su.tree), "s", static_cast<long>(su.tree.size()));
  m.put("substrate.construct_s", median(su.construct), "s", static_cast<long>(su.construct.size()));
  put_solve_layers(m, solve_totals(spans, main_track), 1.0);
  put_phase_layers(m, main_row, rows);
  if (w.method == SparsifyMethod::kLowRank) {
    const auto [ms, calls] = time_rep_apply(solver, su.extractor->tree(), request.lowrank);
    m.put("lowrank.rep_apply_calls", static_cast<double>(calls), "count");
    m.put("lowrank.rep_apply_ms", ms, "ms", std::min<long>(16, calls));
  } else {
    m.put("lowrank.rep_apply_calls", 0.0, "count");
    m.put("lowrank.rep_apply_ms", 0.0, "ms");
  }
  put_model_layers(m, plain.model, exact.v);
  for (const char* name : {"api.extractions", "api.deduped", "api.cache_hits", "api.shed",
                           "api.retried", "api.failed"})
    m.put(name, 0.0, "count");
  m.put("util.cpu_s", twin_cpu, "s");
  m.put("util.busy_frac", ratio(twin_cpu, static_cast<double>(kThreads) * twin_s), "ratio");
  m.put("util.trace_overhead", traced.cpu / twin_cpu - 1.0, "ratio");
  for (const std::string& track : {main_track, companion_track, std::string("n256-2t")})
    if (!track.empty()) print_self_table(spans, self, track);
  if (!o.trace_out.empty() && sink.write_chrome(o.trace_out))
    std::printf("chrome trace: %s\n", o.trace_out.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// service-mix: closed-loop clients over one ExtractionService
// ---------------------------------------------------------------------------

constexpr std::size_t kClients = 4;
// One worker keeps one vCPU busy, as in the extraction workloads; in-flight
// dedup still happens, since four clients submit at once.
constexpr std::size_t kWorkers = 1;
// A pass is ~2 CPU seconds, so a run holds ten or more.
constexpr std::size_t kSubmissions = 400;
constexpr std::size_t kCorners = 20;  // new corners: 5% of the submissions
// Corner k has sigma_top = 0.5 + 0.05 k, k < kCorners, and every pass
// extracts all of them, so the work of a pass is the same for every seed;
// the seed orders them and places them in the stream. Each value was
// checked to extract without solver fallbacks: some others (for example
// sigma_top = 1.3143575396148699) make row-basis PCG hit max_iterations
// three times and take 8.3 s instead of 0.11 s.
constexpr double kSigmaStep = 0.05;

/// The seeded submission stream: each entry is a corner index. The first
/// submission and kCorners - 1 more at seeded positions bring a new corner;
/// every other one repeats a uniformly drawn earlier corner. Corner k is
/// paper_stack(40, 0.5, sigma_top[k]), sigma_top drawn without replacement
/// from the kCorners values.
struct Stream {
  std::vector<std::size_t> corner_of;
  std::vector<double> sigma_top;
};

Stream make_stream(std::uint64_t seed) {
  Stream s;
  Rng rng(seed);
  std::vector<std::size_t> grid(kCorners), slots(kSubmissions - 1);
  for (std::size_t k = 0; k < kCorners; ++k) grid[k] = k;
  for (std::size_t i = 0; i < slots.size(); ++i) slots[i] = i + 1;
  std::vector<bool> fresh(kSubmissions, false);
  fresh[0] = true;
  for (std::size_t c = 1; c < kCorners; ++c) {  // partial Fisher-Yates over positions 1..
    const std::size_t pick = c - 1 + rng.below(slots.size() - (c - 1));
    std::swap(slots[c - 1], slots[pick]);
    fresh[slots[c - 1]] = true;
  }
  for (std::size_t i = 0; i < kSubmissions; ++i) {
    if (fresh[i]) {
      const std::size_t pick = rng.below(grid.size());
      s.corner_of.push_back(s.sigma_top.size());
      s.sigma_top.push_back(0.5 + kSigmaStep * static_cast<double>(grid[pick]));
      grid[pick] = grid.back();
      grid.pop_back();
    } else {
      s.corner_of.push_back(rng.below(s.sigma_top.size()));
    }
  }
  return s;
}

struct Corners {
  std::vector<SubstrateStack> stacks;
  std::vector<std::shared_ptr<const SubstrateSolver>> solvers;
  std::vector<std::string> keys;
};

Corners make_corners(const Stream& s, const Layout& layout, const ExtractionRequest& request) {
  Corners c;
  for (const double sigma : s.sigma_top) {
    c.stacks.push_back(paper_stack(40.0, 0.5, sigma));
    c.solvers.push_back(make_solver(SolverKind::kSurface, layout, c.stacks.back()));
    c.keys.push_back(
        model_cache_key(layout, c.stacks.back(), request, c.solvers.back()->cache_tag()));
  }
  return c;
}

struct Submission {
  double latency = 0.0;  // submit to wait() returning
  double run_s = 0.0;    // report.seconds
  bool ok = false;
  bool hit = false;
  std::uint64_t hash = 0;
};

struct Round {
  std::vector<Submission> subs;
  double wall = 0.0;
  double cpu = 0.0;
  ServiceStats stats;
  /// One result per corner from the submission that extracted it.
  std::map<std::size_t, ExtractionResult> extracted;
};

ServiceStats stats_delta(const ServiceStats& a, const ServiceStats& b) {
  ServiceStats d;
  d.accepted = a.accepted - b.accepted;
  d.deduped = a.deduped - b.deduped;
  d.shed = a.shed - b.shed;
  d.retried = a.retried - b.retried;
  d.failed = a.failed - b.failed;
  d.cache_hits = a.cache_hits - b.cache_hits;
  return d;
}

/// One pass over the stream: kClients threads, each submitting its
/// round-robin share one at a time. With a sink, every submission records a
/// job span split into queue wait and run, and every corner's solver and
/// phases record under the job key.
Round run_round(ExtractionService& service, const Stream& stream, const Corners& corners,
                const Layout& layout, const ExtractionRequest& request, TraceSink* sink) {
  Round round;
  round.subs.resize(stream.corner_of.size());
  std::vector<std::shared_ptr<const SubstrateSolver>> solvers = corners.solvers;
  std::vector<ExtractionRequest> requests(corners.keys.size(), request);
  if (sink != nullptr) {
    for (std::size_t k = 0; k < solvers.size(); ++k) {
      solvers[k] = std::make_shared<TracingSolver>(*corners.solvers[k], *sink, corners.keys[k], 3);
      requests[k].progress = phase_recorder(*sink, corners.keys[k], 2);
    }
  }
  service.cache().clear();
  const ServiceStats before = service.stats();
  std::mutex mutex;
  const double cpu0 = cpu_seconds();
  const double start = now_s();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = c; i < stream.corner_of.size(); i += kClients) {
        const std::size_t k = stream.corner_of[i];
        Submission& sub = round.subs[i];
        const double t0 = now_s();
        const ExtractionJob job =
            service.submit(solvers[k], layout, corners.stacks[k], requests[k]);
        const Status status = job.wait();
        const double t1 = now_s();
        sub.latency = t1 - t0;
        sub.ok = status.ok();
        if (!sub.ok) continue;
        const ExtractionResult& r = job.result();
        sub.run_s = r.report.seconds;
        sub.hit = r.report.from_cache;
        sub.hash = model_hash(r.model);
        if (!sub.hit) {
          const std::lock_guard<std::mutex> lock(mutex);
          round.extracted.try_emplace(k, r);
        }
        if (sink != nullptr) {
          // A submission that joined an in-flight extraction waited less
          // than the extraction ran: its run starts at submission.
          const std::string& key = corners.keys[k];
          const double run_start = std::max(t0, t1 - sub.run_s);
          sink->add(Span{.name = sub.hit ? "hit" : "job", .track = key, .level = 0,
                         .start = t0, .end = t1});
          sink->add(Span{.name = "queue-wait", .track = key, .level = 1, .start = t0,
                         .end = run_start});
          sink->add(Span{.name = "run", .track = key, .level = 1, .start = run_start,
                         .end = t1});
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  round.wall = now_s() - start;
  round.cpu = cpu_seconds() - cpu0;
  round.stats = stats_delta(service.stats(), before);
  return round;
}

/// Checks one round: every submission succeeded, one extraction per
/// distinct corner, and every result bit-identical to its corner's
/// extraction.
void check_round(const Round& round, const Stream& stream, Checks& checks) {
  checks.attempted += static_cast<long>(round.subs.size());
  const std::size_t corners = std::set<std::size_t>(stream.corner_of.begin(),
                                                    stream.corner_of.end()).size();
  const std::size_t extractions = round.stats.accepted - round.stats.cache_hits;
  if (extractions != corners || round.extracted.size() != corners)
    checks.fail("service ran " + std::to_string(extractions) + " extractions for " +
                std::to_string(corners) + " distinct corners");
  for (std::size_t i = 0; i < round.subs.size(); ++i) {
    const Submission& sub = round.subs[i];
    const auto it = round.extracted.find(stream.corner_of[i]);
    if (!sub.ok)
      checks.fail("submission " + std::to_string(i) + " failed");
    else if (it == round.extracted.end() || model_hash(it->second.model) != sub.hash)
      checks.fail("submission " + std::to_string(i) + " differs from its corner's extraction");
  }
}

std::vector<double> extraction_seconds(const Round& round) {
  std::vector<double> s;
  for (const auto& [k, r] : round.extracted) s.push_back(r.report.seconds);
  return s;
}

int run_service(const Options& o, MetricSet& m, Checks& checks) {
  const Layout layout = regular_grid_layout(8, 2.0);
  const ExtractionRequest request{.method = SparsifyMethod::kLowRank,
                                  .threshold_sparsity_multiple = 6.0};
  const Stream stream = make_stream(o.seed);
  const ServiceOptions service_options{.workers = kWorkers};

  // Set-up: the service plus every key's solver, kSetupReps times, then
  // for kSetupSliceS after each timed pass.
  std::vector<double> setup, construct, tree;
  const auto set_up_service = [&] {
    const double cpu0 = cpu_seconds();
    Corners c;
    {
      const ExtractionService service(service_options);
      c = make_corners(stream, layout, request);
      setup.push_back(cpu_seconds() - cpu0);
    }
    const double t1 = now_s();
    const auto solver = make_solver(SolverKind::kSurface, layout, c.stacks[0]);
    construct.push_back(now_s() - t1);
    tree.push_back(Extractor(*solver, layout).tree_build_seconds());
    return c;
  };
  Corners corners;
  for (std::size_t i = 0; i < kSetupReps; ++i) corners = set_up_service();

  // The warm-up batch and the solver gate, on the sigma_top = 1 corner.
  const auto ref_solver = make_solver(SolverKind::kSurface, layout, paper_stack(40.0, 0.5, 1.0));
  const ExactColumns ref = solve_exact(*ref_solver, o.seed);
  const std::string refs = ref_path(o, "surface", 8);
  if (o.write_refs) {
    write_refs(refs, ref);
    return 0;
  }
  check_refs(refs, ref, checks);

  ExtractionService service(service_options);
  // The traced run pools the api latencies of enough untraced passes for a
  // p99 with ten samples beyond it.
  const std::size_t min_rounds = o.trace ? 1000 / kSubmissions + 1 : 1;
  std::vector<Round> rounds;
  RefClock clock;
  clock.tick();
  const double start = now_s();
  do {
    rounds.push_back(run_round(service, stream, corners, layout, request, nullptr));
    clock.tick();
    for (const double t = now_s(); now_s() - t < kSetupSliceS;) set_up_service();
    clock.tick();
    check_round(rounds.back(), stream, checks);
  } while (rounds.size() < min_rounds || (!o.trace && now_s() - start < o.seconds));
  const SparsifiedModel& model0 = rounds[0].extracted.at(stream.corner_of[0]).model;
  std::optional<Round> traced;
  if (o.trace) {
    TraceSink sink;
    traced = run_round(service, stream, corners, layout, request, &sink);
    check_round(*traced, stream, checks);
    for (const auto& [k, r] : traced->extracted) {
      const auto it = rounds[0].extracted.find(k);
      if (it == rounds[0].extracted.end() || model_hash(it->second.model) != model_hash(r.model))
        checks.fail("traced model of corner " + std::to_string(k) + " differs from untraced");
    }
    const std::vector<Span> spans = sink.spans();
    const std::vector<double> self = self_seconds(spans);
    // Phase metrics: medians over the traced extractions.
    std::map<std::string, std::vector<double>> phase_s, phase_self;
    for (const auto& [k, r] : traced->extracted) {
      for (const auto& [name, lt] : layer_times(spans, self, corners.keys[k])) {
        phase_s[name].push_back(lt.seconds);
        phase_self[name].push_back(lt.self);
      }
    }
    PhaseRow row;
    row.extract_s = median(extraction_seconds(*traced));
    for (const auto& [name, v] : phase_s) row.phases[name] = {median(v), median(phase_self[name])};
    const double extractions = static_cast<double>(traced->extracted.size());

    const Round& plain = rounds[0];
    std::vector<double> hit_ms, wait_ms;
    for (const Round& round : rounds) {
      for (const Submission& s : round.subs) {
        if (s.hit) hit_ms.push_back(1e3 * s.run_s);
        wait_ms.push_back(1e3 * (s.latency - s.run_s));
      }
    }
    const double plain_extract_s = median(extraction_seconds(plain));
    const double cpu_per_extraction = plain.cpu / static_cast<double>(plain.extracted.size());

    m.put("geometry.tree_s", median(tree), "s", static_cast<long>(tree.size()));
    m.put("substrate.construct_s", median(construct), "s", static_cast<long>(construct.size()));
    put_solve_layers(m, solve_totals(spans, ""), extractions);
    put_phase_layers(m, row, ScalingRows{});
    const auto [ms, calls] = time_rep_apply(*corners.solvers[stream.corner_of[0]],
                                            QuadTree(layout), request.lowrank);
    m.put("lowrank.rep_apply_calls", static_cast<double>(calls), "count");
    m.put("lowrank.rep_apply_ms", ms, "ms", std::min<long>(16, calls));
    put_model_layers(m, model0, ref.v);
    m.put("api.cache_hit_ms", median(hit_ms), "ms", static_cast<long>(hit_ms.size()));
    m.put("api.queue_wait_p50_ms", percentile(wait_ms, 0.5), "ms",
          static_cast<long>(wait_ms.size()));
    m.put("api.queue_wait_p99_ms", percentile(wait_ms, 0.99), "ms",
          static_cast<long>(wait_ms.size()));
    m.put("api.extractions", static_cast<double>(plain.stats.accepted - plain.stats.cache_hits),
          "count");
    m.put("api.deduped", static_cast<double>(plain.stats.deduped), "count");
    m.put("api.cache_hits", static_cast<double>(plain.stats.cache_hits), "count");
    m.put("api.shed", static_cast<double>(plain.stats.shed), "count");
    m.put("api.retried", static_cast<double>(plain.stats.retried), "count");
    m.put("api.failed", static_cast<double>(plain.stats.failed), "count");
    m.put("util.cpu_s", cpu_per_extraction, "s");
    // A service worker runs its extraction inline on one thread.
    m.put("util.busy_frac", ratio(cpu_per_extraction, plain_extract_s), "ratio");
    m.put("util.trace_overhead",
          traced->cpu / static_cast<double>(traced->extracted.size()) / cpu_per_extraction - 1.0,
          "ratio");
    print_self_table(spans, self);
    if (!o.trace_out.empty() && sink.write_chrome(o.trace_out))
      std::printf("chrome trace: %s\n", o.trace_out.c_str());
    return 0;
  }

  // End-to-end metrics over every round.
  std::vector<double> extract_s, extract_cpu, hit_ms, miss_ms, solves, sparsity;
  double wall = 0.0;
  std::size_t submissions = 0;
  for (const Round& round : rounds) {
    extract_cpu.push_back(round.cpu / static_cast<double>(round.extracted.size()));
    for (const auto& [k, r] : round.extracted) {
      extract_s.push_back(r.report.seconds);
      solves.push_back(static_cast<double>(r.report.solves));
      sparsity.push_back(r.report.gw_sparsity);
    }
    for (const Submission& s : round.subs) (s.hit ? hit_ms : miss_ms).push_back(1e3 * s.latency);
    wall += round.wall;
    submissions += round.subs.size();
  }
  // Accuracy of every corner's model against its own exact columns.
  double max_err = 0.0;
  long scored = 0;
  for (const auto& [k, r] : rounds[0].extracted) {
    const ExactColumns e = solve_exact(*corners.solvers[k], o.seed + k);
    max_err = std::max(max_err, score_model(r.model, e, checks));
    scored += static_cast<long>(e.ids.size());
  }
  const auto apply = call_rate([&] { g_sink = model0.apply(ref.v)[0]; }, 9, 0.05);
  m.put("extract_ref_s", median(extract_cpu) * clock.scale_mean(), "s",
        static_cast<long>(extract_cpu.size()));
  m.put("extract_cpu_s", median(extract_cpu), "s", static_cast<long>(extract_cpu.size()));
  m.put("extract_s", median(extract_s), "s", static_cast<long>(extract_s.size()));
  m.put("ref_speed", clock.scale_mean(), "ratio", static_cast<long>(clock.ticks()));
  m.put("solves", median(solves), "count", static_cast<long>(solves.size()));
  m.put("max_rel_err", max_err, "ratio", scored);
  m.put("gw_sparsity", median(sparsity), "ratio", static_cast<long>(sparsity.size()));
  m.put("apply_cols_per_s", apply.first, "1/s", apply.second);
  m.put("setup_s", median(setup) * clock.scale_median(), "s", static_cast<long>(setup.size()));
  m.put("setup_cpu_s", median(setup), "s", static_cast<long>(setup.size()));
  m.put("peak_rss_mb", peak_rss_mb(), "MB");
  m.put("jobs_per_s", static_cast<double>(submissions) / wall, "1/s",
        static_cast<long>(submissions));
  m.put("hit_p50_ms", percentile(hit_ms, 0.5), "ms", static_cast<long>(hit_ms.size()));
  m.put("hit_p99_ms", percentile(hit_ms, 0.99), "ms", static_cast<long>(hit_ms.size()));
  m.put("miss_p50_ms", percentile(miss_ms, 0.5), "ms", static_cast<long>(miss_ms.size()));
  m.put("fail_frac", ratio(static_cast<double>(std::min(checks.failed, checks.attempted)),
                           static_cast<double>(checks.attempted)), "ratio", checks.attempted);
  return 0;
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]\n"
               "                 [--commit ID] [--refs-dir DIR] [--trace-out FILE] "
               "[--write-refs]\n"
               "workloads: lowrank-surface-256 wavelet-surface-1024 wavelet-fd-256 "
               "service-mix\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(value().c_str());
    else if (a == "--trace") o.trace = value() != "0";
    else if (a == "--commit") o.commit = value();
    else if (a == "--refs-dir") o.refs_dir = value();
    else if (a == "--trace-out") o.trace_out = value();
    else if (a == "--write-refs") o.write_refs = true;
    else usage();
  }
  if (o.workload.empty()) usage();
  return o;
}

int run(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const int cpu = o.trace ? -1 : pin_to_current_cpu();
  set_thread_count(kThreads);
  const double load = load_average();
  const CpuTicks ticks0 = read_cpu_ticks();
  MetricSet m;
  Checks checks;
  int rc = 2;
  try {
    if (o.workload == "service-mix") {
      rc = run_service(o, m, checks);
    } else {
      for (const ExtractionWorkload& w : kExtractionWorkloads)
        if (o.workload == w.name) rc = run_extraction(w, o, m, checks);
      if (rc == 2) usage();
    }
  } catch (const std::exception& e) {
    checks.fail(std::string("workload threw: ") + e.what(), 0);
    checks.attempted = std::max(1L, checks.attempted);
    checks.failed = checks.attempted;
    rc = 1;
  }
  if (o.write_refs) return rc;
  const CpuTicks ticks1 = read_cpu_ticks();
  const double steal = ratio(static_cast<double>(ticks1.steal - ticks0.steal),
                             static_cast<double>(ticks1.total - ticks0.total));
  std::printf("context: workload=%s seed=%llu backend=%s threads=%zu pinned_cpu=%d commit=%s "
              "loadavg=%.2f steal_frac=%.4f\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              backend_name(active_backend()), thread_count(), cpu, o.commit.c_str(), load,
              steal);
  m.print_table(o.trace ? "per-layer metrics (traced run)" : "end-to-end metrics");
  const bool correct = checks.ok && rc == 0;
  // Several checks can fail for one operation; an operation fails once.
  const long attempted = std::max(1L, checks.attempted);
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, std::min(checks.failed, attempted),
              m.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
