// Tests for the transform substrate: FFT vs naive DFT, fast DCT vs its
// O(N^2) reference, orthogonality/roundtrip properties, 2-D separability,
// and the fast Poisson solver against direct dense solves.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "transform/dct.hpp"
#include "transform/fft.hpp"
#include "transform/poisson.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace subspar {
namespace {

std::vector<double> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.normal();
  return x;
}

TEST(Fft, MatchesNaiveDft) {
  Rng rng(1);
  std::vector<Complex> x(32);
  for (auto& v : x) v = Complex(rng.normal(), rng.normal());
  auto ref = dft_naive(x);
  auto fast = x;
  fft(fast);
  for (std::size_t k = 0; k < x.size(); ++k) {
    EXPECT_NEAR(fast[k].real(), ref[k].real(), 1e-10);
    EXPECT_NEAR(fast[k].imag(), ref[k].imag(), 1e-10);
  }
}

TEST(Fft, RoundTripIdentity) {
  Rng rng(2);
  std::vector<Complex> x(64);
  for (auto& v : x) v = Complex(rng.normal(), rng.normal());
  auto y = x;
  fft(y);
  ifft(y);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-12);
}

TEST(Fft, ParsevalEnergyConservation) {
  Rng rng(3);
  std::vector<Complex> x(128);
  double ex = 0.0;
  for (auto& v : x) {
    v = Complex(rng.normal(), 0.0);
    ex += std::norm(v);
  }
  auto y = x;
  fft(y);
  double ey = 0.0;
  for (const auto& v : y) ey += std::norm(v);
  EXPECT_NEAR(ey, ex * 128.0, 1e-8 * ex * 128.0);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<Complex> x(12);
  EXPECT_THROW(fft(x), std::invalid_argument);
}

TEST(Fft, DeltaTransformsToConstant) {
  std::vector<Complex> x(16, Complex(0, 0));
  x[0] = Complex(1, 0);
  fft(x);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-13);
    EXPECT_NEAR(v.imag(), 0.0, 1e-13);
  }
}

TEST(Dct, FastMatchesNaivePowerOfTwo) {
  const auto x = random_signal(64, 4);
  const auto fast = dct2(x);
  const auto ref = dct2_naive(x);
  for (std::size_t k = 0; k < x.size(); ++k) EXPECT_NEAR(fast[k], ref[k], 1e-10);
}

TEST(Dct, Dct3FastMatchesNaive) {
  const auto y = random_signal(32, 5);
  const auto fast = dct3(y);
  const auto ref = dct3_naive(y);
  for (std::size_t k = 0; k < y.size(); ++k) EXPECT_NEAR(fast[k], ref[k], 1e-10);
}

TEST(Dct, RoundTripIdentity) {
  const auto x = random_signal(128, 6);
  const auto y = dct3(dct2(x));
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(y[i], x[i], 1e-11);
}

TEST(Dct, OrthonormalParseval) {
  const auto x = random_signal(64, 7);
  const auto y = dct2(x);
  double ex = 0.0, ey = 0.0;
  for (double v : x) ex += v * v;
  for (double v : y) ey += v * v;
  EXPECT_NEAR(ex, ey, 1e-10 * ex);
}

TEST(Dct, ConstantMapsToDcModeOnly) {
  std::vector<double> x(16, 3.0);
  const auto y = dct2(x);
  EXPECT_NEAR(y[0], 3.0 * std::sqrt(16.0), 1e-12);
  for (std::size_t k = 1; k < y.size(); ++k) EXPECT_NEAR(y[k], 0.0, 1e-12);
}

TEST(Dct, NonPowerOfTwoFallsBackToNaive) {
  const auto x = random_signal(12, 8);
  const auto y = dct3(dct2(x));
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(y[i], x[i], 1e-11);
}

TEST(Dct, LinearityProperty) {
  const auto x = random_signal(32, 9);
  const auto y = random_signal(32, 10);
  std::vector<double> z(32);
  for (std::size_t i = 0; i < 32; ++i) z[i] = 2.0 * x[i] - 3.0 * y[i];
  const auto tx = dct2(x), ty = dct2(y), tz = dct2(z);
  for (std::size_t k = 0; k < 32; ++k) EXPECT_NEAR(tz[k], 2.0 * tx[k] - 3.0 * ty[k], 1e-11);
}

TEST(Dct2d, RoundTripIdentity) {
  auto a = random_signal(16 * 8, 11);
  const auto orig = a;
  dct2_2d(a, 16, 8);
  dct3_2d(a, 16, 8);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], orig[i], 1e-11);
}

TEST(Dct2d, SeparableModeIsEigenvector) {
  // cos(pi*2(i+1/2)/8)*cos(pi*3(j+1/2)/8) must transform to a single
  // coefficient at (2,3).
  const std::size_t n = 8;
  std::vector<double> a(n * n);
  constexpr double kPi = 3.14159265358979323846;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      a[i * n + j] = std::cos(kPi * 2.0 * (i + 0.5) / n) * std::cos(kPi * 3.0 * (j + 0.5) / n);
  dct2_2d(a, n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (i == 2 && j == 3) {
        EXPECT_NEAR(a[i * n + j], n / 2.0, 1e-10);  // (sqrt(2/n)*n/2)^2 scaling
      } else {
        EXPECT_NEAR(a[i * n + j], 0.0, 1e-10);
      }
    }
}

class DctSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(DctSizeSweep, RoundTripAcrossSizes) {
  const auto n = static_cast<std::size_t>(GetParam());
  const auto x = random_signal(n, 20 + n);
  const auto y = dct3(dct2(x));
  for (std::size_t i = 0; i < n; ++i) ASSERT_NEAR(y[i], x[i], 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DctSizeSweep, ::testing::Values(1, 2, 3, 4, 7, 8, 16, 31, 64, 256));

// ------------------------------------------------------------ fast Poisson

PoissonGrid small_grid(double top_g, double bottom_g) {
  PoissonGrid g;
  g.nx = 4;
  g.ny = 8;
  g.nz = 5;
  g.lateral_g = {2.0, 2.0, 1.0, 1.0, 1.0};       // two-layer profile
  g.vertical_g = {2.0, std::sqrt(2.0), 1.0, 1.0};  // boundary resistor in series
  g.top_g = top_g;
  g.bottom_g = bottom_g;
  return g;
}

TEST(FastPoisson, SolveInvertsApply) {
  const FastPoisson3D fp(small_grid(0.7, 0.0));
  Rng rng(12);
  Vector b(fp.grid().size());
  for (auto& v : b) v = rng.normal();
  const Vector x = fp.solve(b);
  EXPECT_LT(norm2(fp.apply(x) - b), 1e-10 * norm2(b));
}

TEST(FastPoisson, MatchesDenseCholesky) {
  const FastPoisson3D fp(small_grid(0.3, 1.5));
  const std::size_t n = fp.grid().size();
  // Build the dense operator column by column via apply().
  Matrix a(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    Vector e(n);
    e[j] = 1.0;
    a.set_col(j, fp.apply(e));
  }
  const Cholesky chol(a);
  Rng rng(13);
  Vector b(n);
  for (auto& v : b) v = rng.normal();
  EXPECT_LT(norm2(fp.solve(b) - chol.solve(b)), 1e-9 * norm2(b));
}

TEST(FastPoisson, FloatingGridHandlesConstantMode) {
  const FastPoisson3D fp(small_grid(0.0, 0.0));  // no anchors: singular mode
  Rng rng(14);
  Vector b(fp.grid().size());
  for (auto& v : b) v = rng.normal();
  // Remove the mean so b is in the range of the singular operator.
  double mean = 0.0;
  for (double v : b) mean += v;
  mean /= static_cast<double>(b.size());
  for (auto& v : b) v -= mean;
  const Vector x = fp.solve(b);
  const Vector r = fp.apply(x) - b;
  EXPECT_LT(norm2(r), 1e-6 * norm2(b));
}

TEST(FastPoisson, ApplyIsSymmetric) {
  const FastPoisson3D fp(small_grid(0.4, 0.2));
  Rng rng(15);
  Vector x(fp.grid().size()), y(fp.grid().size());
  for (auto& v : x) v = rng.normal();
  for (auto& v : y) v = rng.normal();
  EXPECT_NEAR(dot(fp.apply(x), y), dot(x, fp.apply(y)), 1e-10);
}

TEST(FastPoisson, RejectsNonPowerOfTwoLateralDims) {
  PoissonGrid g = small_grid(0.1, 0.0);
  g.nx = 6;
  EXPECT_THROW(FastPoisson3D{g}, std::invalid_argument);
}

class PoissonTopG : public ::testing::TestWithParam<double> {};

TEST_P(PoissonTopG, SolveExactAcrossTopCouplings) {
  PoissonGrid g = small_grid(GetParam(), 0.0);
  const FastPoisson3D fp(g);
  Rng rng(16);
  Vector b(fp.grid().size());
  for (auto& v : b) v = rng.normal();
  const Vector x = fp.solve(b);
  EXPECT_LT(norm2(fp.apply(x) - b), 1e-9 * norm2(b));
}

INSTANTIATE_TEST_SUITE_P(TopCouplings, PoissonTopG, ::testing::Values(0.05, 0.25, 1.0, 4.0));

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// The contracts poisson.hpp states for solve_many: it overwrites every
// entry of the caller's block (prefilled with NaN here), every column
// equals solve() of that column bit for bit, and the block is
// bit-identical at 1 and 4 threads.
PoissonGrid wide_grid() {  // nx != ny
  PoissonGrid g = small_grid(0.6, 0.3);
  g.nx = 16;
  g.ny = 4;
  return g;
}

PoissonGrid single_plane_grid() {  // nz = 1
  PoissonGrid g;
  g.nx = 8;
  g.ny = 16;
  g.nz = 1;
  g.lateral_g = {1.5};
  g.top_g = 0.7;
  return g;
}

PoissonGrid fd_benchmark_grid() {  // the 32 x 32 x 20 grid of wavelet-fd-256
  PoissonGrid g;
  g.nx = g.ny = 32;
  g.nz = 20;
  // sigma h of SubstrateStack({{2, 1}, {36, 100}, {2, 0.1}}) at h = 2,
  // bottom plane first.
  g.lateral_g.assign(g.nz, 200.0);
  g.lateral_g.front() = 0.2;
  g.lateral_g.back() = 2.0;
  g.vertical_g.resize(g.nz - 1);
  for (std::size_t z = 0; z + 1 < g.nz; ++z)
    g.vertical_g[z] = 2.0 * g.lateral_g[z] * g.lateral_g[z + 1] /
                      (g.lateral_g[z] + g.lateral_g[z + 1]);
  g.top_g = 0.25 * 4.0;  // area-weighted p = 1/4 times the contact coupling
  g.bottom_g = 0.4;       // grounded backplane
  return g;
}

class PoissonContracts : public ::testing::TestWithParam<int> {
 protected:
  static PoissonGrid grid(int which) {
    switch (which) {
      case 0: return small_grid(0.4, 0.0);
      case 1: return small_grid(0.0, 0.0);  // floating: constant-mode anchor
      case 2: return wide_grid();
      case 3: return single_plane_grid();
      default: return fd_benchmark_grid();
    }
  }
};

TEST_P(PoissonContracts, SolveManyColumnsEqualSolveBitwise) {
  const FastPoisson3D fp(grid(GetParam()));
  const std::size_t n = fp.grid().size(), k = 5;
  Rng rng(80 + static_cast<std::uint64_t>(GetParam()));
  Matrix b(n, k);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < k; ++j) b(i, j) = rng.normal();
  Matrix x(n, k, kNaN);
  fp.solve_many(b, x);
  for (std::size_t j = 0; j < k; ++j) {
    const Vector xj = fp.solve(b.col(j));
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(x(i, j), xj[i]) << "col " << j << " row " << i;
  }
  // A narrower block on the same (now warm) per-thread scratch.
  Matrix x2(n, 2, kNaN);
  fp.solve_many(b.block(0, 3, n, 2), x2);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < 2; ++j) ASSERT_EQ(x2(i, j), x(i, 3 + j)) << i << "," << j;
  Matrix wrong(n, k + 1);
  EXPECT_THROW(fp.solve_many(b, wrong), std::invalid_argument);
  // And solve() inverts the stencil (the floating grid's anchored
  // constant mode aside).
  if (fp.grid().top_g > 0.0 || fp.grid().bottom_g > 0.0) {
    const Vector x0 = fp.solve(b.col(0));
    EXPECT_LT(norm2(fp.apply(x0) - b.col(0)), 1e-9 * norm2(b.col(0)));
  }
}

TEST_P(PoissonContracts, SolveManyBitIdenticalAcrossThreadCounts) {
  const FastPoisson3D fp(grid(GetParam()));
  const std::size_t n = fp.grid().size(), k = 7;
  Rng rng(90 + static_cast<std::uint64_t>(GetParam()));
  Matrix b(n, k);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < k; ++j) b(i, j) = rng.normal();
  Matrix one(n, k, kNaN), four(n, k, kNaN);
  set_thread_count(1);
  fp.solve_many(b, one);
  const Vector single_one = fp.solve(b.col(3));
  set_thread_count(4);
  fp.solve_many(b, four);
  const Vector single_four = fp.solve(b.col(3));
  set_thread_count(1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) ASSERT_EQ(one(i, j), four(i, j)) << i << "," << j;
    ASSERT_EQ(single_one[i], single_four[i]) << i;
  }
}

std::string poisson_grid_name(const ::testing::TestParamInfo<int>& info) {
  static const char* const kNames[] = {"SmallGrid", "FloatingGrid", "NxNotNy", "NzOne",
                                       "Fd32x32x20"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(Grids, PoissonContracts, ::testing::Range(0, 5), poisson_grid_name);

}  // namespace
}  // namespace subspar

namespace subspar {
namespace {

TEST(Dct2d, RectangularGridRoundTrip) {
  auto a = random_signal(32 * 8, 30);
  const auto orig = a;
  dct2_2d(a, 8, 32);  // wide
  dct3_2d(a, 8, 32);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_NEAR(a[i], orig[i], 1e-11);
}

TEST(Dct, DeltaSpreadsToAllModes) {
  std::vector<double> x(16, 0.0);
  x[0] = 1.0;
  const auto y = dct2(x);
  for (std::size_t k = 0; k < y.size(); ++k) ASSERT_NE(y[k], 0.0);
}

TEST(FastPoisson, SingleLayerNzOne) {
  PoissonGrid g;
  g.nx = 8;
  g.ny = 8;
  g.nz = 1;
  g.lateral_g = {1.5};
  g.top_g = 0.7;
  const FastPoisson3D fp(g);
  Rng rng(31);
  Vector b(fp.grid().size());
  for (auto& v : b) v = rng.normal();
  const Vector x = fp.solve(b);
  EXPECT_LT(norm2(fp.apply(x) - b), 1e-10 * norm2(b));
}

// ------------------------------------------------ plans and batched DCTs

TEST(DctPlan, PlannedDct2MatchesNaive) {
  // 1e-13-level agreement; the O(N^2) reference itself accumulates roundoff
  // ~ sqrt(N) * eps, so the tolerance scales with sqrt(N).
  for (const std::size_t n : {2u, 8u, 64u, 256u}) {
    auto x = random_signal(n, 40 + n);
    const auto ref = dct2_naive(x);
    dct_plan(n).dct2(x.data());
    const double tol = 2e-14 * std::sqrt(static_cast<double>(n));
    for (std::size_t k = 0; k < n; ++k) ASSERT_NEAR(x[k], ref[k], tol) << "n=" << n;
  }
}

TEST(DctPlan, PlannedDct3MatchesNaive) {
  for (const std::size_t n : {2u, 8u, 64u, 256u}) {
    auto y = random_signal(n, 50 + n);
    const auto ref = dct3_naive(y);
    dct_plan(n).dct3(y.data());
    const double tol = 2e-14 * std::sqrt(static_cast<double>(n));
    for (std::size_t k = 0; k < n; ++k) ASSERT_NEAR(y[k], ref[k], tol) << "n=" << n;
  }
}

TEST(DctPlan, NonPowerOfTwoDenseTableMatchesNaive) {
  for (const std::size_t n : {1u, 3u, 12u, 31u}) {
    auto x = random_signal(n, 60 + n);
    const auto ref = dct2_naive(x);
    dct_plan(n).dct2(x.data());
    for (std::size_t k = 0; k < n; ++k) ASSERT_NEAR(x[k], ref[k], 1e-13) << "n=" << n;
  }
}

TEST(DctPlan, FreeFunctionsRouteThroughPlan) {
  const auto x = random_signal(128, 70);
  auto planned = x;
  dct_plan(x.size()).dct2(planned.data());
  const auto free_fn = dct2(x);
  for (std::size_t k = 0; k < x.size(); ++k) ASSERT_EQ(planned[k], free_fn[k]);
}

TEST(Dct2dMany, MatchesSingleGridTransformsBitExactly) {
  const std::size_t rows = 16, cols = 8, batch = 5;
  auto stacked = random_signal(batch * rows * cols, 71);
  std::vector<std::vector<double>> singles(batch);
  for (std::size_t b = 0; b < batch; ++b)
    singles[b].assign(stacked.begin() + static_cast<std::ptrdiff_t>(b * rows * cols),
                      stacked.begin() + static_cast<std::ptrdiff_t>((b + 1) * rows * cols));
  dct2_2d_many(stacked, rows, cols, batch);
  for (std::size_t b = 0; b < batch; ++b) {
    dct2_2d(singles[b], rows, cols);
    for (std::size_t i = 0; i < rows * cols; ++i)
      ASSERT_EQ(stacked[b * rows * cols + i], singles[b][i]) << "grid " << b;
  }
}

TEST(Dct2dMany, RoundTripIdentity) {
  const std::size_t rows = 8, cols = 32, batch = 3;
  auto a = random_signal(batch * rows * cols, 72);
  const auto orig = a;
  dct2_2d_many(a, rows, cols, batch);
  dct3_2d_many(a, rows, cols, batch);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_NEAR(a[i], orig[i], 1e-12);
}

TEST(Dct2dMany, BitIdenticalAcrossThreadCounts) {
  const std::size_t rows = 32, cols = 32, batch = 8;
  const auto orig = random_signal(batch * rows * cols, 73);
  set_thread_count(1);
  auto one = orig;
  dct2_2d_many(one, rows, cols, batch);
  set_thread_count(4);
  auto four = orig;
  dct2_2d_many(four, rows, cols, batch);
  set_thread_count(1);
  for (std::size_t i = 0; i < orig.size(); ++i) ASSERT_EQ(one[i], four[i]);
}

TEST(FftPlan, ForwardMatchesNaiveDft) {
  Rng rng(74);
  std::vector<Complex> x(64);
  for (auto& v : x) v = Complex(rng.normal(), rng.normal());
  const auto ref = dft_naive(x);
  fft_plan(x.size()).forward(x.data());
  for (std::size_t k = 0; k < x.size(); ++k)
    ASSERT_LT(std::abs(x[k] - ref[k]), 1e-10);
}

TEST(Fft, LinearityProperty) {
  Rng rng(32);
  std::vector<Complex> x(64), y(64), z(64);
  for (std::size_t i = 0; i < 64; ++i) {
    x[i] = Complex(rng.normal(), rng.normal());
    y[i] = Complex(rng.normal(), rng.normal());
    z[i] = 2.0 * x[i] - 0.5 * y[i];
  }
  fft(x);
  fft(y);
  fft(z);
  for (std::size_t k = 0; k < 64; ++k)
    ASSERT_LT(std::abs(z[k] - (2.0 * x[k] - 0.5 * y[k])), 1e-10);
}

}  // namespace
}  // namespace subspar
