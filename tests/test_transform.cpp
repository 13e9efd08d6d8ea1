// Tests for the transform substrate: the reference FFT (tests/support) vs
// naive DFT, fast DCT vs its O(N^2) reference and, bit for bit, vs the
// std::complex Makhoul reference, orthogonality/roundtrip properties, 2-D
// separability, and the fast Poisson solver against direct dense solves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "support/fft_reference.hpp"
#include "transform/dct.hpp"
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

INSTANTIATE_TEST_SUITE_P(Sizes, DctSizeSweep, ::testing::Values(1, 2, 4, 8, 16, 64, 256));

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

// The contracts poisson.hpp states for solve_many, at every block width
// from one column to past two 16-column strips: it overwrites every entry of
// the caller's block (prefilled with NaN here), every column equals solve()
// of that column bit for bit, and the block is bit-identical at 1 and 4
// threads.
constexpr std::size_t kWidths[] = {1, 2, 3, 5, 8, 16, 17, 33};

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

Matrix random_block(std::size_t n, std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  Matrix b(n, k);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < k; ++j) b(i, j) = rng.normal();
  return b;
}

TEST_P(PoissonContracts, SolveManyColumnsEqualSolveBitwise) {
  const FastPoisson3D fp(grid(GetParam()));
  const std::size_t n = fp.grid().size();
  for (const std::size_t k : kWidths) {
    const Matrix b = random_block(n, k, 80 + 100 * k + static_cast<std::uint64_t>(GetParam()));
    Matrix x(n, k, kNaN);
    fp.solve_many(b, x);
    for (std::size_t j = 0; j < k; ++j) {
      const Vector xj = fp.solve(b.col(j));
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_FALSE(std::isnan(x(i, j))) << "k " << k << " col " << j << " row " << i;
        ASSERT_EQ(x(i, j), xj[i]) << "k " << k << " col " << j << " row " << i;
      }
    }
  }
  const Matrix b = random_block(n, 5, 80);
  Matrix wrong(n, 6);
  EXPECT_THROW(fp.solve_many(b, wrong), std::invalid_argument);
  Matrix aliased = b;
  EXPECT_THROW(fp.solve_many(aliased, aliased), std::invalid_argument);
  // And solve() inverts the stencil (the floating grid's anchored
  // constant mode aside).
  if (fp.grid().top_g > 0.0 || fp.grid().bottom_g > 0.0) {
    const Vector x0 = fp.solve(b.col(0));
    EXPECT_LT(norm2(fp.apply(x0) - b.col(0)), 1e-9 * norm2(b.col(0)));
  }
}

TEST_P(PoissonContracts, SolveManyBitIdenticalAcrossThreadCounts) {
  const FastPoisson3D fp(grid(GetParam()));
  const std::size_t n = fp.grid().size();
  for (const std::size_t k : kWidths) {
    const Matrix b = random_block(n, k, 90 + 100 * k + static_cast<std::uint64_t>(GetParam()));
    Matrix one(n, k, kNaN), four(n, k, kNaN);
    set_thread_count(1);
    fp.solve_many(b, one);
    const Vector single_one = fp.solve(b.col(k - 1));
    set_thread_count(4);
    fp.solve_many(b, four);
    const Vector single_four = fp.solve(b.col(k - 1));
    set_thread_count(1);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < k; ++j)
        ASSERT_EQ(one(i, j), four(i, j)) << "k " << k << " at " << i << "," << j;
      ASSERT_EQ(single_one[i], single_four[i]) << "k " << k << " row " << i;
    }
  }
}

// The route the block path replaced, rebuilt from the public GEMM layer:
// per column, the x-lines times C_x' and the y-planes times C_y as packed
// products into zeroed outputs, the Thomas sweeps in [ky][z][kx] order, and
// the two inverse products. On the 32 x 32 x 20 grid every one of those
// products takes the packed path, so each output is gemm_f64's chain, and
// the block path's resident-panel kernel must reproduce it bit for bit
// under whichever backend is active.
Vector gemm_route_solve(const PoissonGrid& g, const Vector& b) {
  const std::size_t nx = g.nx, ny = g.ny, nz = g.nz;
  const Matrix cx = dct2_matrix(nx), cy = dct2_matrix(ny);
  const auto mu = [](std::size_t len, std::size_t k) {
    return 2.0 - 2.0 * std::cos(3.14159265358979323846 * static_cast<double>(k) /
                                static_cast<double>(len));
  };
  Matrix lines(nz * ny, nx), lines_hat(nz * ny, nx), planes(ny, nz * nx),
      planes_hat(ny, nz * nx);
  std::copy(b.begin(), b.end(), lines.row_ptr(0));
  matmul_nt_add(lines_hat, lines, cx);
  for (std::size_t z = 0; z < nz; ++z)
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < nx; ++x) planes(y, z * nx + x) = lines_hat(z * ny + y, x);
  matmul_add(planes_hat, cy, planes);
  for (std::size_t ky = 0; ky < ny; ++ky)
    for (std::size_t kx = 0; kx < nx; ++kx) {
      // Thomas factors exactly as the constructor computes them (this grid
      // is anchored, so no floating-mode term).
      std::vector<double> inv(nz), cprime(nz);
      double cprev = 0.0;
      for (std::size_t z = 0; z < nz; ++z) {
        double d = g.lateral_g[z] * (mu(nx, kx) + mu(ny, ky));
        if (z > 0) d += g.vertical_g[z - 1];
        if (z + 1 < nz) d += g.vertical_g[z];
        if (z == nz - 1) d += g.top_g;
        if (z == 0) d += g.bottom_g;
        const double m = z == 0 ? d : d + g.vertical_g[z - 1] * cprev;
        cprev = z + 1 < nz ? -g.vertical_g[z] / m : 0.0;
        inv[z] = 1.0 / m;
        cprime[z] = cprev;
      }
      double* spec = planes_hat.row_ptr(ky) + kx;
      spec[0] *= inv[0];
      for (std::size_t z = 1; z < nz; ++z)
        spec[z * nx] = (spec[z * nx] + g.vertical_g[z - 1] * spec[(z - 1) * nx]) * inv[z];
      for (std::size_t z = nz - 1; z-- > 0;) spec[z * nx] -= cprime[z] * spec[(z + 1) * nx];
    }
  planes = Matrix(ny, nz * nx);
  matmul_tn_add(planes, cy, planes_hat);
  for (std::size_t z = 0; z < nz; ++z)
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < nx; ++x) lines_hat(z * ny + y, x) = planes(y, z * nx + x);
  lines = Matrix(nz * ny, nx);
  matmul_add(lines, lines_hat, cx);
  return Vector(std::vector<double>(lines.row_ptr(0), lines.row_ptr(0) + g.size()));
}

TEST(FastPoisson, BlockPathMatchesGemmReference) {
  const PoissonGrid g = fd_benchmark_grid();
  const FastPoisson3D fp(g);
  const std::size_t n = g.size();
  for (const std::size_t k : {std::size_t{16}, std::size_t{7}}) {
    const Matrix b = random_block(n, k, 70 + k);
    Matrix x(n, k, kNaN);
    fp.solve_many(b, x);
    for (std::size_t j = 0; j < k; ++j) {
      const Vector want = gemm_route_solve(g, b.col(j));
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(x(i, j), want[i]) << "k " << k << " col " << j << " row " << i;
    }
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

// ------------------------------------------------------------- DCT plans

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

TEST(DctPlan, RejectsNonPowerOfTwoLengths) {
  EXPECT_THROW(DctPlan(3), std::invalid_argument);
  EXPECT_THROW(DctPlan(12), std::invalid_argument);
}

TEST(DctPlan, FreeFunctionsRouteThroughPlan) {
  const auto x = random_signal(128, 70);
  auto planned = x;
  dct_plan(x.size()).dct2(planned.data());
  const auto free_fn = dct2(x);
  for (std::size_t k = 0; k < x.size(); ++k) ASSERT_EQ(planned[k], free_fn[k]);
}

// ------------------------------------- line kernel vs std::complex reference

std::uint64_t bit_pattern(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// Test lines of length n. Kinds 0-4 are finite: normals; normals with
// signed zeros; all signed zeros; magnitudes from 2^-60 to 2^100 (the fault
// injector's 2^100 among them); subnormals. Kinds 5-7 put NaNs of one sign
// among normals (+NaN; -NaN; two -NaNs), kind 8 a +NaN and a -NaN, and
// kinds 9-10 an infinity of either sign.
constexpr int kMixedNan = 8, kKinds = 11;

std::vector<double> probe_line(std::size_t n, int kind, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.normal();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto pick = [&] { return static_cast<std::size_t>(rng.below(n)); };
  switch (kind) {
    case 1:
      for (std::size_t j = 0; j < n; j += 3) x[j] = rng.uniform(-1.0, 1.0) < 0.0 ? -0.0 : 0.0;
      break;
    case 2:
      for (auto& v : x) v = rng.uniform(-1.0, 1.0) < 0.0 ? -0.0 : 0.0;
      break;
    case 3:
      for (auto& v : x) v = std::ldexp(v, static_cast<int>(rng.below(161)) - 60);
      x[pick()] = std::ldexp(1.0, 100);
      break;
    case 4:
      for (auto& v : x) v = std::ldexp(v, -1030 - static_cast<int>(rng.below(40)));
      break;
    case 5: x[pick()] = nan; break;
    case 6: x[pick()] = -nan; break;
    case 7:
      x[pick()] = -nan;
      x[pick()] = -nan;
      break;
    case kMixedNan:
      x[pick()] = nan;
      x[pick()] = -nan;
      break;
    case 9: x[pick()] = inf; break;
    case 10: x[pick()] = -inf; break;
    default: break;
  }
  return x;
}

// DctPlan's power-of-two kernel runs the std::complex radix-2 FFT's
// multiplies and adds in its order, so finite lines and lines whose NaNs
// share one payload match the Makhoul reference bit for bit (payloads and
// zero signs included) at every stride, and the entries between a strided
// line's elements are not touched. Two looser cases, both by design:
//  - NaNs of both signs: where two NaN payloads meet in one add, IEEE 754
//    leaves open which one propagates, and x86 returns the first operand,
//    so the payload follows the compiler's operand order, which differs
//    between the two code paths. Both sides are NaN at the same outputs.
//  - Infinities: where a std::complex product comes out NaN + iNaN, its C
//    Annex G recovery (__muldc3) re-derives an infinity, and the explicit
//    multiply keeps the NaN. Both sides are non-finite at the same outputs.
TEST(DctPlan, LineKernelBitIdenticalToComplexFftReference) {
  constexpr double kSentinel = -123.25;
  for (std::size_t n = 2; n <= 512; n *= 2) {
    for (const std::size_t stride : {std::size_t{1}, std::size_t{3}, n}) {
      std::vector<double> buf((n - 1) * stride + 2 + stride);
      for (const bool forward : {true, false}) {
        for (int kind = 0; kind < kKinds; ++kind) {
          const std::string tag = std::string(forward ? "dct2" : "dct3") +
                                  " n=" + std::to_string(n) + " stride=" + std::to_string(stride) +
                                  " kind=" + std::to_string(kind);
          const auto line = probe_line(n, kind, 1000 * n + 10 * stride + kind);
          const auto ref = forward ? makhoul_dct2(line) : makhoul_dct3(line);
          std::fill(buf.begin(), buf.end(), kSentinel);
          double* x = buf.data() + 1;
          for (std::size_t j = 0; j < n; ++j) x[j * stride] = line[j];
          forward ? dct_plan(n).dct2(x, stride) : dct_plan(n).dct3(x, stride);
          for (std::size_t i = 0; i < buf.size(); ++i) {
            if (i >= 1 && (i - 1) % stride == 0 && (i - 1) / stride < n) continue;
            ASSERT_EQ(bit_pattern(buf[i]), bit_pattern(kSentinel)) << tag << " gap i=" << i;
          }
          for (std::size_t k = 0; k < n; ++k) {
            const double got = x[k * stride];
            if (kind < kMixedNan) {
              ASSERT_EQ(bit_pattern(got), bit_pattern(ref[k])) << tag << " k=" << k;
            } else if (kind == kMixedNan) {
              ASSERT_TRUE(std::isnan(got)) << tag << " k=" << k;
              ASSERT_TRUE(std::isnan(ref[k])) << tag << " k=" << k;
            } else {
              ASSERT_FALSE(std::isfinite(got)) << tag << " k=" << k;
              ASSERT_FALSE(std::isfinite(ref[k])) << tag << " k=" << k;
            }
          }
        }
      }
    }
  }
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
