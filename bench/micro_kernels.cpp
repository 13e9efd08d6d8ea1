// Microkernel throughput (google-benchmark): the computational primitives
// every experiment stands on — DCT lines and grids, small SVDs, the fast
// Poisson solve, one black-box substrate solve, and one apply of the
// phase-1 low-rank representation.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include "common.hpp"

using namespace subspar;
using namespace subspar::bench;

namespace {

// One DCT-II and one DCT-III line through DctPlan's line kernel, in place:
// contiguous (Args n, 1: a grid row) or at stride n (Args n, n: a column
// of an n x n grid, as the surface operator's column passes run them).
// Items = lines.
void BM_DctLine(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto stride = static_cast<std::size_t>(state.range(1));
  Rng rng(1);
  std::vector<double> a(n * stride);
  for (auto& v : a) v = rng.normal();
  const DctPlan& plan = dct_plan(n);
  for (auto _ : state) {
    plan.dct2(a.data(), stride);
    plan.dct3(a.data(), stride);
    benchmark::DoNotOptimize(a.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(2 * static_cast<long>(state.iterations()));
}
BENCHMARK(BM_DctLine)->Args({32, 1})->Args({32, 32})->Args({128, 1})->Args({128, 128})
    ->Args({256, 1})->Args({256, 256});

void BM_Dct2d(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<double> a(n * n);
  for (auto& v : a) v = rng.normal();
  for (auto _ : state) {
    auto b = a;
    dct2_2d(b, n, n);
    benchmark::DoNotOptimize(b);
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * static_cast<long>(n * n));
}
BENCHMARK(BM_Dct2d)->Arg(64)->Arg(128);

// ---- dense kernel layer: blocked matmul / gram / tall SVD

Matrix random_dense(std::size_t m, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
  return a;
}

// Reference point for BM_Matmul: the naive i-k-j triple loop (with the
// zero-skip branch) that was the seed's `matmul` before the blocked kernel
// replaced it. Items = multiply-accumulates, comparable across both.
void BM_MatmulNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_dense(n, n, 7);
  const Matrix b = random_dense(n, n, 8);
  for (auto _ : state) {
    Matrix c(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      double* crow = c.row_ptr(i);
      for (std::size_t k = 0; k < n; ++k) {
        const double aik = a(i, k);
        if (aik == 0.0) continue;
        const double* brow = b.row_ptr(k);
        for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
    benchmark::DoNotOptimize(c(0, 0));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(n * n * n));
}
BENCHMARK(BM_MatmulNaive)->Arg(64)->Arg(256);

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_dense(n, n, 7);
  const Matrix b = random_dense(n, n, 8);
  for (auto _ : state) {
    const Matrix c = matmul(a, b);
    benchmark::DoNotOptimize(c(0, 0));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(n * n * n));
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(256);

void BM_GramTn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_dense(4 * n, n, 9);  // tall sample-matrix shape
  for (auto _ : state) {
    const Matrix g = gram_tn(a);
    benchmark::DoNotOptimize(g(0, 0));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(4 * n * n * n));
}
BENCHMARK(BM_GramTn)->Arg(64)->Arg(256);

// Block-PCG algebra at its two block heights (range = rows): 4,096 is a
// wavelet-surface-1024 panel block, 20,480 the FD grid of wavelet-fd-256,
// both 16 columns wide. BM_TallGram is one Gram product P'Q (16 x 16
// output), BM_TallUpdate one direction update Z += P B (16 x 16 B); both
// take dense_kernels.cpp's row-streaming tall-skinny path. Items =
// multiply-accumulates.
void BM_TallGram(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const Matrix p = random_dense(rows, 16, 11);
  const Matrix q = random_dense(rows, 16, 12);
  for (auto _ : state) {
    const Matrix g = matmul_tn(p, q);
    benchmark::DoNotOptimize(g(0, 0));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(rows * 16 * 16));
}
BENCHMARK(BM_TallGram)->Arg(4096)->Arg(20480);

void BM_TallUpdate(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const Matrix p = random_dense(rows, 16, 13);
  const Matrix beta = random_dense(16, 16, 14);
  Matrix z = random_dense(rows, 16, 15);
  for (auto _ : state) {
    matmul_add(z, p, beta, 1e-3);
    benchmark::DoNotOptimize(z(0, 0));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(rows * 16 * 16));
}
BENCHMARK(BM_TallUpdate)->Arg(4096)->Arg(20480);

// Tall-matrix SVD, the low-rank sampling shape: QR-preconditioned path vs
// the plain one-sided Jacobi baseline it replaced.
void BM_TallSvd(benchmark::State& state) {
  const Matrix a = random_dense(512, 32, 10);
  for (auto _ : state) {
    const Svd s = svd(a);
    benchmark::DoNotOptimize(s.sigma[0]);
  }
}
BENCHMARK(BM_TallSvd);

void BM_TallSvdJacobi(benchmark::State& state) {
  const Matrix a = random_dense(512, 32, 10);
  for (auto _ : state) {
    const Svd s = svd_jacobi(a);
    benchmark::DoNotOptimize(s.sigma[0]);
  }
}
BENCHMARK(BM_TallSvdJacobi);

void BM_JacobiSvd(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  Matrix a(m, 27);  // the shape of a sampled interaction block
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) a(i, j) = rng.normal();
  for (auto _ : state) {
    const Svd s = svd(a);
    benchmark::DoNotOptimize(s.sigma[0]);
  }
}
BENCHMARK(BM_JacobiSvd)->Arg(32)->Arg(64);

void BM_FastPoissonSolve(benchmark::State& state) {
  PoissonGrid g;
  g.nx = g.ny = 64;
  g.nz = 20;
  g.lateral_g.assign(g.nz, 1.0);
  g.vertical_g.assign(g.nz - 1, 1.0);
  g.top_g = 0.25;
  const FastPoisson3D fp(g);
  Rng rng(4);
  Vector b(g.size());
  for (auto& v : b) v = rng.normal();
  for (auto _ : state) {
    const Vector x = fp.solve(b);
    benchmark::DoNotOptimize(x[0]);
  }
}
BENCHMARK(BM_FastPoissonSolve);

// One block of `range` right-hand sides through FastPoisson3D::solve_many on
// the 32 x 32 x 20 grid of the wavelet-fd-256 workload (the FD solve's
// preconditioner step). Narrow widths are what block PCG passes once
// converged columns deflate; compare the per-column rate across widths.
void BM_FastPoissonSolveMany(benchmark::State& state) {
  PoissonGrid g;
  g.nx = g.ny = 32;
  g.nz = 20;
  // sigma h of SubstrateStack({{2, 1}, {36, 100}, {2, 0.1}}) at h = 2,
  // bottom plane first, with series vertical couplings.
  g.lateral_g.assign(g.nz, 200.0);
  g.lateral_g.front() = 0.2;
  g.lateral_g.back() = 2.0;
  g.vertical_g.resize(g.nz - 1);
  for (std::size_t z = 0; z + 1 < g.nz; ++z)
    g.vertical_g[z] = 2.0 * g.lateral_g[z] * g.lateral_g[z + 1] /
                      (g.lateral_g[z] + g.lateral_g[z + 1]);
  g.top_g = 1.0;
  g.bottom_g = 0.4;
  const FastPoisson3D fp(g);
  const auto k = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  Matrix b(g.size(), k), x(g.size(), k);
  for (std::size_t i = 0; i < b.rows(); ++i)
    for (std::size_t j = 0; j < k; ++j) b(i, j) = rng.normal();
  for (auto _ : state) {
    fp.solve_many(b, x);
    benchmark::DoNotOptimize(x(0, 0));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * static_cast<long>(k));
}
BENCHMARK(BM_FastPoissonSolveMany)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

struct SolveFixtureState {
  Layout layout = regular_grid_layout(16);
  std::unique_ptr<SubstrateSolver> solver = make_solver(SolverKind::kSurface, layout, bench_stack());
};

void BM_SurfaceSolve(benchmark::State& state) {
  static SolveFixtureState fx;
  Rng rng(5);
  Vector v(fx.layout.n_contacts());
  for (auto& x : v) x = rng.normal();
  for (auto _ : state) {
    const Vector i = fx.solver->solve(v);
    benchmark::DoNotOptimize(i[0]);
  }
}
BENCHMARK(BM_SurfaceSolve);

// k right-hand sides through one solve_many call (blocked PCG, operator
// columns fanned over the pool) on the BM_SurfaceSolve layout. Compare k * BM_SurfaceSolve
// wall-clock against one BM_BatchedSolve/k iteration.
void BM_BatchedSolve(benchmark::State& state) {
  static SolveFixtureState fx;
  const auto k = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  Matrix v(fx.layout.n_contacts(), k);
  for (std::size_t i = 0; i < v.rows(); ++i)
    for (std::size_t j = 0; j < v.cols(); ++j) v(i, j) = rng.normal();
  for (auto _ : state) {
    const Matrix i = fx.solver->solve_many(v);
    benchmark::DoNotOptimize(i(0, 0));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * static_cast<long>(k));
}
BENCHMARK(BM_BatchedSolve)->Arg(4)->Arg(16);

// ---- sparse engine: batched SpMM / IC(0) sweeps / FD solve

// The Table 2.1 FD system's grid Laplacian (64x64x20, layered stack with a
// 1000x conductivity contrast), shared by the sparse micro-benches.
struct SparseFixture {
  GridSpec spec;
  SparseMatrix a;
  Ic0Preconditioner ic0;
  SparseFixture() : spec(make_spec()), a(assemble_grid_laplacian(spec)), ic0(a) {}
  static GridSpec make_spec() {
    GridSpec s;
    s.nx = s.ny = 64;
    s.nz = 20;
    s.h = 2.0;
    s.sigma.assign(s.nz, 100.0);
    s.sigma.front() = 1.0;
    s.sigma.back() = 0.1;
    s.g_top.assign(s.nx * s.ny, 0.0);
    Rng rng(12);
    for (auto& g : s.g_top) g = rng.below(4) == 0 ? 0.4 : 0.0;
    s.g_bottom = 4.0;
    return s;
  }
};

Matrix random_rhs(std::size_t n, std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  Matrix b(n, k);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < k; ++j) b(i, j) = rng.normal();
  return b;
}

// Reference point for BM_SpMM: one CSR traversal per right-hand side.
void BM_SpMMPerColumn(benchmark::State& state) {
  static SparseFixture fx;
  const auto k = static_cast<std::size_t>(state.range(0));
  const Matrix x = random_rhs(fx.a.cols(), k, 13);
  for (auto _ : state) {
    Matrix y(fx.a.rows(), k);
    for (std::size_t j = 0; j < k; ++j) y.set_col(j, fx.a.apply(x.col(j)));
    benchmark::DoNotOptimize(y(0, 0));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(fx.a.nnz() * k));
}
BENCHMARK(BM_SpMMPerColumn)->Arg(16);

// Batched multi-RHS SpMM: one row-partitioned traversal feeds all columns
// (bit-identical to the per-column reference).
void BM_SpMM(benchmark::State& state) {
  static SparseFixture fx;
  const auto k = static_cast<std::size_t>(state.range(0));
  const Matrix x = random_rhs(fx.a.cols(), k, 13);
  for (auto _ : state) {
    const Matrix y = fx.a.apply_many(x);
    benchmark::DoNotOptimize(y(0, 0));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(fx.a.nnz() * k));
}
BENCHMARK(BM_SpMM)->Arg(4)->Arg(16);

void BM_Ic0SolvePerColumn(benchmark::State& state) {
  static SparseFixture fx;
  const auto k = static_cast<std::size_t>(state.range(0));
  const Matrix b = random_rhs(fx.a.rows(), k, 14);
  for (auto _ : state) {
    Matrix x(b.rows(), k);
    for (std::size_t j = 0; j < k; ++j)
      x.set_col(j, ic0_solve(fx.ic0.factor(), b.col(j)));
    benchmark::DoNotOptimize(x(0, 0));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * static_cast<long>(k));
}
BENCHMARK(BM_Ic0SolvePerColumn)->Arg(16);

// Forward/backward substitution on the natural-order IC(0) factor, all
// right-hand sides of a row swept together.
void BM_Ic0SolveMany(benchmark::State& state) {
  static SparseFixture fx;
  const auto k = static_cast<std::size_t>(state.range(0));
  const Matrix b = random_rhs(fx.a.rows(), k, 14);
  for (auto _ : state) {
    const Matrix x = ic0_solve_many(fx.ic0.factor(), b);
    benchmark::DoNotOptimize(x(0, 0));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * static_cast<long>(k));
}
BENCHMARK(BM_Ic0SolveMany)->Arg(4)->Arg(16);

// The whole-path numbers behind the sparse engine: k FD solves through the
// ICCG branch (natural-order IC(0) sweeps), per-column vs one batched
// solve_many (shared block-Krylov space + multi-RHS sparse kernels).
struct FdSolveFixture {
  Layout layout = regular_grid_layout(8, 2.0);
  SubstrateStack stack = bench_stack_fd();
  FdSolver solver{layout, stack,
                  {.grid_h = 2.0, .precond = FdPreconditioner::kIncompleteCholesky}};
};

void BM_FdSolvePerColumn(benchmark::State& state) {
  static FdSolveFixture fx;
  const auto k = static_cast<std::size_t>(state.range(0));
  const Matrix v = random_rhs(fx.layout.n_contacts(), k, 15);
  for (auto _ : state) {
    Matrix i(fx.layout.n_contacts(), k);
    for (std::size_t j = 0; j < k; ++j) i.set_col(j, fx.solver.solve(v.col(j)));
    benchmark::DoNotOptimize(i(0, 0));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * static_cast<long>(k));
}
BENCHMARK(BM_FdSolvePerColumn)->Arg(16);

// Also reports the process's minor page faults per solve ("minflt"), from a
// getrusage delta around the timed loop. The solver keeps its PCG blocks
// per thread. Two untimed solves at this width size them and settle the
// allocator (glibc maps the first solve's nodes x k result block and raises
// its mmap threshold when that is freed; the second comes from the heap),
// so a timed solve should fault (next to) never.
void BM_FdSolveBatched(benchmark::State& state) {
  static FdSolveFixture fx;
  const auto k = static_cast<std::size_t>(state.range(0));
  const Matrix v = random_rhs(fx.layout.n_contacts(), k, 15);
  for (int warm = 0; warm < 2; ++warm) benchmark::DoNotOptimize(fx.solver.solve_many(v)(0, 0));
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  for (auto _ : state) {
    const Matrix i = fx.solver.solve_many(v);
    benchmark::DoNotOptimize(i(0, 0));
  }
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  state.counters["minflt"] = benchmark::Counter(
      static_cast<double>(after.ru_minflt - before.ru_minflt), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * static_cast<long>(k));
}
BENCHMARK(BM_FdSolveBatched)->Arg(4)->Arg(16);

void BM_RowBasisApply(benchmark::State& state) {
  static SolveFixtureState fx;
  static const QuadTree tree(fx.layout);
  static const RowBasisRep rep(*fx.solver, tree);
  Rng rng(6);
  Vector v(fx.layout.n_contacts());
  for (auto& x : v) x = rng.normal();
  for (auto _ : state) {
    const Vector i = rep.apply(v);
    benchmark::DoNotOptimize(i[0]);
  }
}
BENCHMARK(BM_RowBasisApply);

}  // namespace

// BENCHMARK_MAIN plus provenance: the active kernel backend and the thread
// count land in the JSON "context" block, so every saved baseline records
// which SUBSPAR_BACKEND / SUBSPAR_THREADS produced its numbers.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("subspar_backend", backend_name(active_backend()));
  benchmark::AddCustomContext("subspar_threads", std::to_string(thread_count()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
