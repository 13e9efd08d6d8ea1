// Golden regression pins for the quickstart pipeline (the exact numbers a
// fresh checkout prints from examples/quickstart.cpp). These values are the
// contract that refactors of the extraction internals must not perturb: the
// column-sampling row basis stays bit-for-bit what it was at the seed, and
// both methods' models keep their bits and their solve batches.
//
// If a change legitimately alters them (an accuracy improvement, a solver
// change), update the constants here in the same commit and say why.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "subspar/subspar.hpp"

namespace subspar {
namespace {

// The quickstart configuration: paper stack, 16x16 grid, low-rank method
// with 6x thresholding, all request fields at their defaults.
struct Quickstart {
  SubstrateStack stack = paper_stack(40.0);
  Layout layout = regular_grid_layout(16);
  std::unique_ptr<SubstrateSolver> solver = make_solver(SolverKind::kSurface, layout, stack);
  ExtractionRequest request{.method = SparsifyMethod::kLowRank,
                            .threshold_sparsity_multiple = 6.0};
};

constexpr long kGoldenSolves = 357;
constexpr std::size_t kGoldenGwNnz = 6090;
constexpr std::size_t kGoldenQNnz = 3184;
constexpr double kGoldenGwSparsity = 10.761247947454844;
constexpr double kGoldenQSparsity = 20.582914572864322;
constexpr double kGoldenResidual = 0.0020533169310501765;

TEST(GoldenQuickstart, PinsSolveCountSparsityAndResidual) {
  Quickstart qs;
  const ExtractionResult ex = Extractor(*qs.solver, qs.layout).extract(qs.request);
  const SparsifiedModel& model = ex.model;

  EXPECT_EQ(ex.report.solves, kGoldenSolves);
  EXPECT_EQ(ex.report.n, 256u);
  EXPECT_EQ(model.gw().nnz(), kGoldenGwNnz);
  EXPECT_EQ(model.q().nnz(), kGoldenQNnz);
  EXPECT_NEAR(ex.report.gw_sparsity, kGoldenGwSparsity, 1e-12);
  EXPECT_NEAR(ex.report.q_sparsity, kGoldenQSparsity, 1e-12);

  // The quickstart apply check, with its exact seed.
  Rng rng(2024);
  Vector v(qs.layout.n_contacts());
  for (auto& x : v) x = rng.uniform(-0.5, 0.5);
  const double resid = norm2(model.apply(v) - qs.solver->solve(v)) / norm2(qs.solver->solve(v));
  EXPECT_NEAR(resid, kGoldenResidual, 1e-9);

  // Every solve belongs to the row-basis phase; the later phases are pure
  // linear algebra over recorded responses.
  ASSERT_GE(ex.report.phases.size(), 3u);
  EXPECT_EQ(ex.report.phases[0].phase, "row-basis");
  EXPECT_EQ(ex.report.phases[0].solves, kGoldenSolves);
  for (std::size_t i = 1; i < ex.report.phases.size(); ++i)
    EXPECT_EQ(ex.report.phases[i].solves, 0) << ex.report.phases[i].phase;
}

// FNV-1a over each CSR row's end offset and then its (column, value)
// pairs, Q first and G_w after, from the FNV offset basis: the digest
// perfbench's model_hash prints, so a pin here and a perfbench run name the
// same bits.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

std::uint64_t sparse_digest(std::uint64_t h, const SparseMatrix& a) {
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const std::size_t end = a.row_end(i);
    h = fnv1a(h, &end, sizeof end);
    for (std::size_t k = a.row_begin(i); k < end; ++k) {
      const std::size_t col = a.col_index(k);
      const double val = a.value(k);
      h = fnv1a(h, &col, sizeof col);
      h = fnv1a(h, &val, sizeof val);
    }
  }
  return h;
}

// The quickstart model's digests, pinned for x86, whose baseline ISA cannot
// fuse a multiply-add. The x86 SIMD backend, avx512, rounds GEMM's
// multiply-adds through FMAs (linalg/backend.hpp), so it has its own
// value. The compiler contracts only when it optimizes: an unoptimized
// build's SIMD backend gives the scalar bits. Recorded with GCC 12 and
// glibc 2.36: another libm's sin/cos tables or another compiler's GEMM
// contraction can move both values.
constexpr std::uint64_t kGoldenDigestScalar = 0xced09c8ad383336fULL;
constexpr std::uint64_t kGoldenDigestX86Simd = 0x61d79181725f6583ULL;
#if defined(__x86_64__) || defined(__i386__)
constexpr bool kDigestPinned = true;
#else
constexpr bool kDigestPinned = false;
#endif
#if defined(__OPTIMIZE__)
constexpr bool kSimdContracts = true;
#else
constexpr bool kSimdContracts = false;
#endif

std::uint64_t model_digest(const SparsifiedModel& model) {
  return sparse_digest(sparse_digest(0xcbf29ce484222325ULL, model.q()), model.gw());
}

// The quickstart layout and stack with the wavelet method, no threshold,
// and with the low-rank method on a two-level tree (max_level = 2), whose
// finest level is its coarsest: the row basis answers the finest W columns
// by direct solves there. Digests as above.
constexpr std::uint64_t kWaveletDigestScalar = 0xb528fa4fb9ffeb33ULL;
constexpr std::uint64_t kWaveletDigestX86Simd = 0x697afde71e506cd5ULL;
constexpr std::uint64_t kTwoLevelDigestScalar = 0x7af379e33d06e9baULL;
constexpr std::uint64_t kTwoLevelDigestX86Simd = 0xb6819d22c4124fbeULL;

// Restores the pool size a test changed, also when an assertion fails.
struct ThreadCountGuard {
  std::size_t saved = thread_count();
  ~ThreadCountGuard() { set_thread_count(saved); }
};

// Runs `check` at 1 and at 4 threads: the digests do not depend on the
// pool size.
template <class Check>
void at_1_and_4_threads(const Check& check) {
  const ThreadCountGuard guard;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_thread_count(threads);
    SCOPED_TRACE(testing::Message() << threads << " thread(s)");
    check();
  }
}

TEST(GoldenQuickstart, PinsModelDigest) {
  if (!kDigestPinned) GTEST_SKIP() << "model digests are pinned for x86 builds only";
  const bool simd_bits = kSimdContracts && active_backend() != BackendKind::kScalar;
  Quickstart qs;
  at_1_and_4_threads([&] {
    const SparsifiedModel model = Extractor(*qs.solver, qs.layout).extract(qs.request).model;
    EXPECT_EQ(model_digest(model), simd_bits ? kGoldenDigestX86Simd : kGoldenDigestScalar)
        << backend_name(active_backend());
  });
}

TEST(GoldenQuickstart, PinsWaveletAndTwoLevelDigests) {
  if (!kDigestPinned) GTEST_SKIP() << "model digests are pinned for x86 builds only";
  const bool simd_bits = kSimdContracts && active_backend() != BackendKind::kScalar;
  Quickstart qs;
  const QuadTree two_level(qs.layout, 2);
  at_1_and_4_threads([&] {
    const ExtractionRequest wavelet{.method = SparsifyMethod::kWavelet};
    EXPECT_EQ(model_digest(Extractor(*qs.solver, qs.layout).extract(wavelet).model),
              simd_bits ? kWaveletDigestX86Simd : kWaveletDigestScalar)
        << backend_name(active_backend());
    EXPECT_EQ(model_digest(Extractor(*qs.solver, two_level).extract().model),
              simd_bits ? kTwoLevelDigestX86Simd : kTwoLevelDigestScalar)
        << backend_name(active_backend());
  });
}

// Forwards to another solver and logs the width of every solve_many batch.
class BatchLog : public SubstrateSolver {
 public:
  explicit BatchLog(const SubstrateSolver& inner) : inner_(inner) {}
  std::size_t n_contacts() const override { return inner_.n_contacts(); }
  std::string name() const override { return inner_.name(); }
  const std::vector<std::size_t>& widths() const { return widths_; }

 protected:
  Vector do_solve(const Vector& v) const override { return inner_.solve(v); }
  Matrix do_solve_many(const Matrix& v) const override {
    widths_.push_back(v.cols());
    return inner_.solve_many(v);
  }

 private:
  const SubstrateSolver& inner_;
  mutable std::vector<std::size_t> widths_;
};

// The solve batches the model bits depend on: their order and widths. The
// low-rank tree takes level 2's sample and basis batches, then per finer
// level a combined sample and basis batch, then the finest W batch; the
// two-level tree answers its W columns directly. The wavelet takes the root
// V columns, then one combined batch per level.
TEST(GoldenQuickstart, PinsSolveBatchWidths) {
  Quickstart qs;
  using Widths = std::vector<std::size_t>;
  const auto widths = [&](const QuadTree& tree, const ExtractionRequest& request) {
    const BatchLog log(*qs.solver);
    Extractor(log, tree).extract(request);
    return log.widths();
  };
  const QuadTree tree(qs.layout), two_level(qs.layout, 2);
  EXPECT_EQ(widths(tree, qs.request), (Widths{16, 89, 36, 144, 36, 36}));
  EXPECT_EQ(widths(two_level, qs.request), (Widths{16, 89, 167}));
  EXPECT_EQ(widths(tree, {.method = SparsifyMethod::kWavelet}), (Widths{6, 18, 72, 90}));
}

}  // namespace
}  // namespace subspar
