// Tests for the runtime-dispatched kernel backend (linalg/backend.hpp):
// registry/override semantics, cross-backend numerical parity, the
// batched-vs-single bit-identity invariants every backend must preserve,
// and the golden quickstart pins re-run under every backend the host
// supports.
//
// Parity contract (backend.hpp): the scalar backend is the bit-exact
// reference; SIMD backends agree within a few ulp. Kernels that vectorize
// ACROSS outputs (SpMM over RHS columns) keep each output's accumulation
// order and are bit-identical to scalar on x86 by the FMA contraction
// policy (src/CMakeLists.txt); kernels that vectorize WITHIN a reduction
// (GEMM, with its deliberate contraction) reassociate and may differ in
// the last ulp of the accumulation. On a cancelling sum the
// ulp distance of the (tiny) result is the wrong yardstick for that, so
// the GEMM checks bound |ref - got| by 4 ulp of the accumulation
// magnitude max|A| * max|B| * k, falling back to plain elementwise ulp
// distance for well-conditioned entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/backend.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "subspar/subspar.hpp"
#include "transform/dct.hpp"
#include "util/rng.hpp"

namespace subspar {
namespace {

// Captured before main() so later set_backend calls cannot pollute it:
// this is the backend the SUBSPAR_BACKEND / CPUID resolution picked at
// process start (the CI backend matrix pins the env var and asserts on it).
const BackendKind kStartupBackend = active_backend();

// Restores the active backend on scope exit, so a failing parity test
// cannot leak a pinned backend into the remaining tests.
class BackendGuard {
 public:
  BackendGuard() : saved_(active_backend()) {}
  ~BackendGuard() { set_backend(saved_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  BackendKind saved_;
};

// Lexicographically monotone integer image of a double (negative range
// mirrored), so ulp distance is plain integer subtraction.
std::int64_t monotone_bits(double x) {
  std::int64_t i;
  std::memcpy(&i, &x, sizeof i);
  return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
}

std::uint64_t ulp_distance(double a, double b) {
  if (a == b) return 0;  // also covers +0 vs -0
  if (!std::isfinite(a) || !std::isfinite(b))
    return std::numeric_limits<std::uint64_t>::max();
  const std::int64_t ka = monotone_bits(a), kb = monotone_bits(b);
  return ka > kb ? static_cast<std::uint64_t>(ka) - static_cast<std::uint64_t>(kb)
                 : static_cast<std::uint64_t>(kb) - static_cast<std::uint64_t>(ka);
}

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.uniform(-1.0, 1.0);
  return m;
}

// 4-ulp agreement against the accumulation magnitude (see file comment).
void expect_close(const Matrix& ref, const Matrix& got, double scale, const std::string& what) {
  ASSERT_EQ(ref.rows(), got.rows()) << what;
  ASSERT_EQ(ref.cols(), got.cols()) << what;
  const double tol = 4.0 * std::ldexp(scale, -52);
  for (std::size_t i = 0; i < ref.rows(); ++i)
    for (std::size_t j = 0; j < ref.cols(); ++j) {
      const double r = ref(i, j), g = got(i, j);
      if (ulp_distance(r, g) <= 4) continue;
      ASSERT_LE(std::abs(r - g), tol) << what << " at (" << i << ", " << j << "): ref=" << r
                                      << " got=" << g << " ulp=" << ulp_distance(r, g);
    }
}

void expect_bitwise(const Matrix& ref, const Matrix& got, const std::string& what) {
  ASSERT_EQ(ref.rows(), got.rows()) << what;
  ASSERT_EQ(ref.cols(), got.cols()) << what;
  for (std::size_t i = 0; i < ref.rows(); ++i)
    for (std::size_t j = 0; j < ref.cols(); ++j)
      ASSERT_EQ(ref(i, j), got(i, j)) << what << " at (" << i << ", " << j << ")";
}

// Random symmetric diagonally-dominant sparse matrix (SPD), mixed-sign
// off-diagonals so accumulation-order effects would show.
SparseMatrix random_spd(std::size_t n, std::size_t extra_per_row, Rng& rng) {
  SparseBuilder b(n, n);
  std::vector<double> diag(n, 1.0);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    b.add(i, i + 1, -1.0);
    b.add(i + 1, i, -1.0);
    diag[i] += 1.0;
    diag[i + 1] += 1.0;
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t e = 0; e < extra_per_row; ++e) {
      const std::size_t j = static_cast<std::size_t>(rng.uniform(0.0, static_cast<double>(n)));
      if (j == i || j >= n) continue;
      const double v = rng.uniform(-0.5, 0.5);
      b.add(i, j, v);
      b.add(j, i, v);
      diag[i] += std::abs(v);
      diag[j] += std::abs(v);
    }
  for (std::size_t i = 0; i < n; ++i) b.add(i, i, diag[i]);
  return SparseMatrix(b);
}

// ---------------------------------------------------------------------------
// Registry and override semantics
// ---------------------------------------------------------------------------

TEST(BackendRegistry, SupportedContainsScalarAndNamesRoundTrip) {
  const std::vector<BackendKind> supported = supported_backends();
  ASSERT_FALSE(supported.empty());
  EXPECT_EQ(supported.front(), BackendKind::kScalar);
  for (BackendKind kind : supported) {
    EXPECT_EQ(parse_backend(backend_name(kind)), kind) << backend_name(kind);
  }
  // Everything supported is also compiled in.
  const std::vector<BackendKind> compiled = compiled_backends();
  for (BackendKind kind : supported)
    EXPECT_NE(std::find(compiled.begin(), compiled.end(), kind), compiled.end());
}

TEST(BackendRegistry, BogusNameRejectedListingUsableBackends) {
  // x86 dispatch is avx512 > scalar, with no AVX2 backend, so "avx2" is as
  // unknown as "sse9".
  for (const std::string name : {"sse9", "avx2"}) {
    try {
      parse_backend(name);
      FAIL() << "parse_backend accepted " << name;
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(name), std::string::npos) << msg;
      EXPECT_NE(msg.find("scalar"), std::string::npos)
          << "message should list the usable backends: " << msg;
    }
  }
  EXPECT_THROW(parse_backend(""), std::invalid_argument);
  // A kind value past the enumerators is refused with the usable list too.
  try {
    set_backend(static_cast<BackendKind>(3));
    FAIL() << "set_backend accepted a kind past the enumerators";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown"), std::string::npos) << msg;
    EXPECT_NE(msg.find("usable: scalar"), std::string::npos) << msg;
  }
}

TEST(BackendRegistry, CompiledButUnsupportedKindsAreRejected) {
  // Kinds the binary carries but this CPU cannot run (e.g. the avx512 TU on
  // an x86 host without AVX-512F) must be refused by name and by
  // set_backend alike.
  const std::vector<BackendKind> supported = supported_backends();
  for (BackendKind kind : compiled_backends()) {
    if (std::find(supported.begin(), supported.end(), kind) != supported.end()) continue;
    EXPECT_THROW(parse_backend(backend_name(kind)), std::invalid_argument)
        << backend_name(kind);
    EXPECT_THROW(set_backend(kind), std::invalid_argument) << backend_name(kind);
  }
}

TEST(BackendRegistry, EnvOverrideHonoredAtStartup) {
  // kStartupBackend was resolved before main(): if SUBSPAR_BACKEND was set
  // (the CI backend matrix exports it), startup must have honored it;
  // otherwise it must be the best supported kind in preference order.
  // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded test startup
  const char* env = std::getenv("SUBSPAR_BACKEND");
  if (env != nullptr && *env != '\0') {
    EXPECT_EQ(kStartupBackend, parse_backend(env));
    return;
  }
  const std::vector<BackendKind> supported = supported_backends();
  constexpr BackendKind kPreference[] = {BackendKind::kAvx512, BackendKind::kNeon,
                                         BackendKind::kScalar};
  for (BackendKind kind : kPreference) {
    if (std::find(supported.begin(), supported.end(), kind) == supported.end()) continue;
    EXPECT_EQ(kStartupBackend, kind) << "expected best supported " << backend_name(kind);
    return;
  }
  FAIL() << "supported_backends() missing scalar";
}

TEST(BackendRegistry, SetBackendSwitchesDispatch) {
  BackendGuard guard;
  for (BackendKind kind : supported_backends()) {
    set_backend(kind);
    EXPECT_EQ(active_backend(), kind) << backend_name(kind);
    EXPECT_EQ(kernel_ops().kind, kind) << backend_name(kind);
  }
}

TEST(BackendRegistry, BackendIsNotDigestedIntoCacheKeys) {
  // Every backend implements the same operator to solver tolerance, so a
  // model extracted under one is valid under all: same cache tag.
  const SubstrateStack stack = paper_stack(40.0);
  const Layout layout = regular_grid_layout(8);
  const auto solver = make_solver(SolverKind::kSurface, layout, stack);
  BackendGuard guard;
  set_backend(BackendKind::kScalar);
  const std::string tag_scalar = solver->cache_tag();
  set_backend(supported_backends().back());
  EXPECT_EQ(solver->cache_tag(), tag_scalar);
}

// ---------------------------------------------------------------------------
// Cross-backend parity on fuzzed shapes
// ---------------------------------------------------------------------------

TEST(BackendParity, GemmFamilyWithin4UlpOfScalarOnFuzzedShapes) {
  BackendGuard guard;
  Rng rng(7741);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t m = 1 + static_cast<std::size_t>(rng.uniform(0.0, 48.0));
    const std::size_t k = 1 + static_cast<std::size_t>(rng.uniform(0.0, 48.0));
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform(0.0, 48.0));
    const Matrix a = random_matrix(m, k, rng);        // for matmul / nt
    const Matrix b = random_matrix(k, n, rng);        // for matmul / tn
    const Matrix at = random_matrix(k, m, rng);       // for matmul_tn
    const Matrix bt = random_matrix(n, k, rng);       // for matmul_nt
    const Matrix c0 = random_matrix(m, n, rng);       // accumulate target
    const double scale = static_cast<double>(k);      // entries are in [-1, 1]

    set_backend(BackendKind::kScalar);
    const Matrix r_nn = matmul(a, b);
    const Matrix r_tn = matmul_tn(at, b);
    const Matrix r_nt = matmul_nt(a, bt);
    const Matrix r_gram = gram_tn(b);
    Matrix r_add = c0;
    matmul_add(r_add, a, b, 0.75);
    const Vector x = random_matrix(k, 1, rng).col(0);
    const Vector r_mv = matvec(a, x);

    for (BackendKind kind : supported_backends()) {
      set_backend(kind);
      const std::string tag =
          std::string(backend_name(kind)) + " trial " + std::to_string(trial);
      expect_close(r_nn, matmul(a, b), scale, "matmul " + tag);
      expect_close(r_tn, matmul_tn(at, b), scale, "matmul_tn " + tag);
      expect_close(r_nt, matmul_nt(a, bt), scale, "matmul_nt " + tag);
      expect_close(r_gram, gram_tn(b), scale, "gram_tn " + tag);
      Matrix got_add = c0;
      matmul_add(got_add, a, b, 0.75);
      expect_close(r_add, got_add, scale + 1.0, "matmul_add " + tag);
      const Vector got_mv = matvec(a, x);
      ASSERT_EQ(got_mv.size(), r_mv.size());
      for (std::size_t i = 0; i < r_mv.size(); ++i)
        EXPECT_LE(ulp_distance(r_mv[i], got_mv[i]), 4u) << "matvec " << tag << " row " << i;
    }
  }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// The tall-skinny GEMM path (TN output at most 16 x 16, NN right operand
// at most 16 x 16, above dense_kernels.cpp's packing threshold) against the
// packed path it replaces, under every backend. Padding the narrow operand
// to 17 columns forces the packed path, and an output's chain does not
// depend on the other columns, so the first n columns must agree bit for
// bit. Below the threshold both shapes take the naive loops, whose
// per-output chain is column-independent too. alpha = 0.3, not a power of
// two, would show alpha applied anywhere but the final C += alpha * acc.
constexpr std::size_t kSmallFlops = 32 * 1024;  // dense_kernels.cpp SMALL_FLOPS

Matrix pad_to_17(const Matrix& m, Rng& rng) {
  Matrix p = random_matrix(m.rows(), 17, rng);
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j) p(i, j) = m(i, j);
  return p;
}

void expect_leading_cols_bitwise(const Matrix& want, const Matrix& padded,
                                 const std::string& what) {
  ASSERT_EQ(want.rows(), padded.rows()) << what;
  for (std::size_t i = 0; i < want.rows(); ++i)
    for (std::size_t j = 0; j < want.cols(); ++j)
      ASSERT_EQ(want(i, j), padded(i, j)) << what << " at (" << i << ", " << j << ")";
}

TEST(BackendParity, TallSkinnyGemmBitIdenticalToPackedPath) {
  BackendGuard guard;
  Rng rng(9090);
  std::size_t tall_products = 0;
  for (std::size_t w1 = 1; w1 <= 16; ++w1) {
    // Every width on one side, a random one on the other (16 x 16 at the
    // end: the FD block), and tall sizes on both sides of the threshold:
    // both shapes naive, just above it, a random size, and at 16 x 16 the
    // FD block height.
    const std::size_t w2 = w1 == 16 ? 16 : 1 + rng.below(16);
    const std::size_t below = std::max<std::size_t>(1, kSmallFlops / (w1 * 17));
    const std::size_t above = kSmallFlops / (w1 * w2) + 1;
    const std::size_t top = w1 == 16 ? 20480 : 1 + rng.below(8192);
    for (const std::size_t t : {below, above, top}) {
      if (t > 20480) continue;
      if (w1 * w2 * t <= kSmallFlops && w1 * 17 * t > kSmallFlops) continue;  // naive vs packed
      if (w1 * w2 * t > kSmallFlops) ++tall_products;
      const Matrix a_tn = random_matrix(t, w1, rng);   // TN: k x m
      const Matrix b_tn = random_matrix(t, w2, rng);   // TN: k x n
      const Matrix a_nn = random_matrix(t, w1, rng);   // NN: m x kk
      const Matrix b_nn = random_matrix(w1, w2, rng);  // NN: kk x n
      const Matrix c_tn = random_matrix(w1, w2, rng);
      const Matrix c_nn = random_matrix(t, w2, rng);
      const Matrix b_tn17 = pad_to_17(b_tn, rng), b_nn17 = pad_to_17(b_nn, rng);
      const Matrix c_tn17 = pad_to_17(c_tn, rng), c_nn17 = pad_to_17(c_nn, rng);
      for (BackendKind kind : supported_backends()) {
        set_backend(kind);
        const std::string tag = std::string(backend_name(kind)) + " " + std::to_string(w1) +
                                "x" + std::to_string(w2) + " depth " + std::to_string(t);
        expect_leading_cols_bitwise(matmul_tn(a_tn, b_tn), matmul_tn(a_tn, b_tn17), "tn " + tag);
        expect_leading_cols_bitwise(matmul(a_nn, b_nn), matmul(a_nn, b_nn17), "nn " + tag);
        for (const double alpha : {1.0, -1.0, 0.5, 0.3}) {
          Matrix tn = c_tn, tn17 = c_tn17, nn = c_nn, nn17 = c_nn17;
          matmul_tn_add(tn, a_tn, b_tn, alpha);
          matmul_tn_add(tn17, a_tn, b_tn17, alpha);
          matmul_add(nn, a_nn, b_nn, alpha);
          matmul_add(nn17, a_nn, b_nn17, alpha);
          const std::string at = " alpha " + std::to_string(alpha) + " " + tag;
          expect_leading_cols_bitwise(tn, tn17, "tn_add" + at);
          expect_leading_cols_bitwise(nn, nn17, "nn_add" + at);
        }
      }
    }
  }
  EXPECT_GE(tall_products, 20u);  // the comparison did reach the tall path
}

// The resident-panel kernel (the fast-Poisson lateral DCTs) against the
// packed product under the same backend, on fuzzed shapes that cover both
// tilings and their tails: full 16-column strips, narrow bands of 32, 16 and
// 8 rows, and scalar leftover rows. Padding C's rows and B's columns forces
// the packed path (an output's chain does not depend on the other rows or
// columns), so every output must agree bit for bit. B and the output are
// strided (ldb, ldo > w) and prefilled with NaN: the kernel reads only the
// panel, writes all of it, and leaves the rest of each row alone. Across
// backends the usual 4-ulp GEMM rule holds.
TEST(BackendParity, PanelKernelBitIdenticalToPackedPath) {
  BackendGuard guard;
  Rng rng(5150);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t m = 1 + rng.below(40), kk = 1 + rng.below(40), w = 1 + rng.below(40);
    const std::size_t ldb = w + 1 + rng.below(9), ldo = w + 1 + rng.below(9);
    const Matrix c = random_matrix(m, kk, rng);
    const Matrix b = random_matrix(kk, w, rng);
    const Matrix ct = c.transposed();  // C column-major
    std::vector<double> bs(kk * ldb, kNaN);
    for (std::size_t l = 0; l < kk; ++l)
      for (std::size_t j = 0; j < w; ++j) bs[l * ldb + j] = b(l, j);
    const std::size_t wp = std::max<std::size_t>(w, 17);
    const std::size_t mp = std::max(m, kSmallFlops / (wp * kk) + 1);
    Matrix cp(mp, kk), bp(kk, wp);
    cp.set_block(0, 0, c);
    bp.set_block(0, 0, b);
    const std::string shape = std::to_string(m) + "x" + std::to_string(kk) + "x" +
                              std::to_string(w);
    const auto panel = [&](const std::string& tag) {
      std::vector<double> out(m * ldo, kNaN);
      kernel_ops().panel_f64(ct.row_ptr(0), m, kk, bs.data(), ldb, w, out.data(), ldo);
      Matrix got(m, w);
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < ldo; ++j) {
          if (j < w) got(i, j) = out[i * ldo + j];
          else EXPECT_TRUE(std::isnan(out[i * ldo + j])) << tag << " wrote past the panel";
        }
      return got;
    };
    set_backend(BackendKind::kScalar);
    const Matrix scalar_out = panel("scalar " + shape);
    for (BackendKind kind : supported_backends()) {
      set_backend(kind);
      const std::string tag = std::string(backend_name(kind)) + " " + shape;
      const Matrix got = panel(tag);
      expect_bitwise(matmul(cp, bp).block(0, 0, m, w), got, "panel " + tag);
      expect_close(scalar_out, got, static_cast<double>(kk), "panel vs scalar " + tag);
    }
  }
}

TEST(BackendParity, SpmmMatchesScalarOnFuzzedMatrices) {
  BackendGuard guard;
  Rng rng(993);
  for (int trial = 0; trial < 3; ++trial) {
    const std::size_t n = 40 + 37 * static_cast<std::size_t>(trial);
    const SparseMatrix a = random_spd(n, 4, rng);
    const std::size_t kRhs = 1 + static_cast<std::size_t>(rng.uniform(0.0, 9.0));
    const Matrix x = random_matrix(n, kRhs, rng);

    set_backend(BackendKind::kScalar);
    const Matrix r_many = a.apply_many(x);
    const Matrix r_t_many = a.apply_t_many(x);

    for (BackendKind kind : supported_backends()) {
      set_backend(kind);
      const std::string tag =
          std::string(backend_name(kind)) + " trial " + std::to_string(trial);
      const double scale = 8.0;  // per-row accumulation: a handful of O(1) entries
      expect_close(r_many, a.apply_many(x), scale, "apply_many " + tag);
      expect_close(r_t_many, a.apply_t_many(x), scale, "apply_t_many " + tag);
#if defined(__x86_64__) || defined(__i386__)
      // On x86 the contraction policy makes the tailed kernels bit-exact
      // against scalar, not merely close (see src/CMakeLists.txt).
      expect_bitwise(r_many, a.apply_many(x), "apply_many bitwise " + tag);
      expect_bitwise(r_t_many, a.apply_t_many(x), "apply_t_many bitwise " + tag);
#endif
    }
  }
}

TEST(BackendParity, DctRoundTripUnderEveryBackend) {
  BackendGuard guard;
  Rng rng(31337);
  // DctPlan's line kernel calls no backend kernel: it runs the same
  // baseline-flag code under every backend, bit-exact against scalar.
  const std::size_t n = 32;
  std::vector<double> base(n * n);
  for (auto& v : base) v = rng.uniform(-1.0, 1.0);

  set_backend(BackendKind::kScalar);
  std::vector<double> ref = base;
  dct2_2d(ref, n, n);

  for (BackendKind kind : supported_backends()) {
    set_backend(kind);
    const std::string tag = backend_name(kind);
    std::vector<double> fwd = base;
    dct2_2d(fwd, n, n);
    for (std::size_t i = 0; i < fwd.size(); ++i) {
      ASSERT_EQ(ref[i], fwd[i]) << "dct2 bitwise " << tag << " i=" << i;
    }

    std::vector<double> back = fwd;
    dct3_2d(back, n, n);
    for (std::size_t i = 0; i < back.size(); ++i)
      EXPECT_NEAR(back[i], base[i], 1e-12) << "round-trip " << tag << " i=" << i;
  }
}

TEST(BackendParity, BatchedEqualsSingleBitwiseUnderEveryBackend) {
  // The invariant the FMA contraction policy exists to protect: batched
  // entry points are bit-identical to their one-at-a-time equivalents
  // under EVERY backend (not just scalar), because a backend may not round
  // a k=1 column differently from a k=8 block.
  BackendGuard guard;
  Rng rng(555);
  const SparseMatrix a = random_spd(120, 3, rng);
  const std::size_t kRhs = 6;
  const Matrix x = random_matrix(120, kRhs, rng);

  for (BackendKind kind : supported_backends()) {
    set_backend(kind);
    const std::string tag = backend_name(kind);

    const Matrix many = a.apply_many(x);
    const Matrix t_many = a.apply_t_many(x);
    for (std::size_t j = 0; j < kRhs; ++j) {
      const Vector single = a.apply(x.col(j));
      const Vector t_single = a.apply_t(x.col(j));
      for (std::size_t i = 0; i < single.size(); ++i) {
        ASSERT_EQ(many(i, j), single[i]) << "apply_many " << tag;
        ASSERT_EQ(t_many(i, j), t_single[i]) << "apply_t_many " << tag;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Golden quickstart pins under every backend
// ---------------------------------------------------------------------------

TEST(GoldenBackend, QuickstartPinsUnchangedUnderEveryBackend) {
  // The test_golden.cpp constants, re-run once per supported backend: the
  // discrete outputs (solve counts, sparsity patterns) must not move when
  // the kernels change ISA — that is the portability contract that lets
  // one ModelCache serve every machine.
  BackendGuard guard;
  for (BackendKind kind : supported_backends()) {
    set_backend(kind);
    SCOPED_TRACE(backend_name(kind));

    const SubstrateStack stack = paper_stack(40.0);
    const Layout layout = regular_grid_layout(16);
    const auto solver = make_solver(SolverKind::kSurface, layout, stack);
    const ExtractionRequest request{.method = SparsifyMethod::kLowRank,
                                    .threshold_sparsity_multiple = 6.0};
    const ExtractionResult ex = Extractor(*solver, layout).extract(request);
    EXPECT_EQ(ex.report.solves, 357);
    EXPECT_EQ(ex.model.gw().nnz(), 6090u);
    EXPECT_EQ(ex.model.q().nnz(), 3184u);
    EXPECT_EQ(ex.report.backend, backend_name(kind));
  }
}

}  // namespace
}  // namespace subspar
