#include "transform/dct.hpp"

#include <cmath>
#include <map>

#include "linalg/backend.hpp"
#include "util/check.hpp"

namespace subspar {
namespace {
constexpr double kPi = 3.14159265358979323846;

double scale0(std::size_t n) { return std::sqrt(1.0 / static_cast<double>(n)); }
double scalek(std::size_t n) { return std::sqrt(2.0 / static_cast<double>(n)); }

}  // namespace

DctPlan::DctPlan(std::size_t n) : n_(n), fast_(is_power_of_two(n) && n > 1) {
  SUBSPAR_REQUIRE(n > 0);
  s0_ = scale0(n);
  sk_ = scalek(n);
  if (fast_) {
    (void)fft_plan(n);  // warm the FFT plan for this thread
    tw_cos_.resize(n);
    tw_sin_.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      const double ang = -kPi * static_cast<double>(k) / (2.0 * static_cast<double>(n));
      tw_cos_[k] = std::cos(ang);
      tw_sin_[k] = std::sin(ang);
    }
    scratch_.resize(n);
  } else {
    // Dense orthonormal DCT-II matrix, row-major: one trigonometric table
    // instead of O(N^2) cos calls per transform. The transpose gives dct3
    // contiguous rows (a plain dot per output).
    dense_ = dct2_matrix(n);
    dense_t_ = dense_.transposed();
  }
}

void DctPlan::dct2(double* x) const {
  const std::size_t n = n_;
  const KernelOps& ops = kernel_ops();
  if (!fast_) {
    // Dense rows are contiguous: one backend dot per output (the scalar
    // backend's dot is the original ascending-j loop, bit for bit).
    std::vector<double> y(n, 0.0);
    for (std::size_t k = 0; k < n; ++k) y[k] = ops.dot_f64(dense_.row_ptr(k), x, n);
    for (std::size_t k = 0; k < n; ++k) x[k] = y[k];
    return;
  }
  // Makhoul even-odd permutation + length-N FFT.
  Complex* v = scratch_.data();
  for (std::size_t j = 0; j < n / 2; ++j) {
    v[j] = Complex(x[2 * j], 0.0);
    v[n - 1 - j] = Complex(x[2 * j + 1], 0.0);
  }
  fft_plan(n).forward(v);
  // Post-twiddle on the backend; std::complex<double> is array-compatible
  // with interleaved (re, im) doubles by the standard's layout guarantee.
  const double* vd = reinterpret_cast<const double*>(v);
  ops.dct2_post_f64(tw_cos_.data(), tw_sin_.data(), vd, x, n, s0_, sk_);
}

void DctPlan::dct3(double* x) const {
  const std::size_t n = n_;
  const KernelOps& ops = kernel_ops();
  if (!fast_) {
    // dct3 is the transpose product; dense_t_ makes each output a
    // contiguous dot in the original ascending-k accumulation order.
    std::vector<double> y(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) y[j] = ops.dot_f64(dense_t_.row_ptr(j), x, n);
    for (std::size_t j = 0; j < n; ++j) x[j] = y[j];
    return;
  }
  // Pre-twiddle on the backend: V_k = e^{+i pi k / 2N} (C_k - i C_{N-k});
  // the conjugate-symmetry of the FFT of the real permuted sequence gives
  // C_{N-k} = -Im(e^{-i pi k/2N} V_k). e^{+i a} has cos = tw_cos,
  // sin = -tw_sin.
  Complex* v = scratch_.data();
  double* vd = reinterpret_cast<double*>(v);
  ops.dct3_pre_f64(tw_cos_.data(), tw_sin_.data(), x, vd, n, s0_, sk_);
  fft_plan(n).inverse(v);
  for (std::size_t j = 0; j < n / 2; ++j) {
    x[2 * j] = v[j].real();
    x[2 * j + 1] = v[n - 1 - j].real();
  }
}

Matrix dct2_matrix(std::size_t n) {
  SUBSPAR_REQUIRE(n > 0);
  Matrix c(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    const double s = k == 0 ? scale0(n) : scalek(n);
    for (std::size_t j = 0; j < n; ++j)
      c(k, j) = s * std::cos(kPi * static_cast<double>(k) * (2.0 * static_cast<double>(j) + 1.0) /
                             (2.0 * static_cast<double>(n)));
  }
  return c;
}

const DctPlan& dct_plan(std::size_t n) {
  // Per-thread plan cache: thread_local IS the synchronization discipline
  // (see fft.cpp); keep this module mutex-free per tools/subspar_lint.py.
  thread_local std::map<std::size_t, DctPlan> cache;
  auto it = cache.find(n);
  if (it == cache.end()) it = cache.emplace(n, DctPlan(n)).first;
  return it->second;
}

std::vector<double> dct2(const std::vector<double>& x) {
  SUBSPAR_REQUIRE(!x.empty());
  std::vector<double> y = x;
  dct_plan(y.size()).dct2(y.data());
  return y;
}

std::vector<double> dct3(const std::vector<double>& y) {
  SUBSPAR_REQUIRE(!y.empty());
  std::vector<double> x = y;
  dct_plan(x.size()).dct3(x.data());
  return x;
}

std::vector<double> dct2_naive(const std::vector<double>& x) {
  const std::size_t n = x.size();
  std::vector<double> y(n);
  for (std::size_t k = 0; k < n; ++k) {
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j)
      s += x[j] * std::cos(kPi * static_cast<double>(k) * (2.0 * static_cast<double>(j) + 1.0) /
                           (2.0 * static_cast<double>(n)));
    y[k] = s * (k == 0 ? scale0(n) : scalek(n));
  }
  return y;
}

std::vector<double> dct3_naive(const std::vector<double>& y) {
  const std::size_t n = y.size();
  std::vector<double> x(n);
  for (std::size_t j = 0; j < n; ++j) {
    double s = 0.0;
    for (std::size_t k = 0; k < n; ++k)
      s += y[k] * (k == 0 ? scale0(n) : scalek(n)) *
           std::cos(kPi * static_cast<double>(k) * (2.0 * static_cast<double>(j) + 1.0) /
                    (2.0 * static_cast<double>(n)));
    x[j] = s;
  }
  return x;
}

namespace {

// One grid: rows through the length-`cols` plan in place, columns gathered
// through the length-`rows` plan. No per-row allocation; one column buffer.
void separable_2d_planned(double* a, std::size_t rows, std::size_t cols, bool forward) {
  const DctPlan& row_plan = dct_plan(cols);
  const DctPlan& col_plan = dct_plan(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    double* row = a + i * cols;
    forward ? row_plan.dct2(row) : row_plan.dct3(row);
  }
  std::vector<double> colbuf(rows);
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t i = 0; i < rows; ++i) colbuf[i] = a[i * cols + j];
    forward ? col_plan.dct2(colbuf.data()) : col_plan.dct3(colbuf.data());
    for (std::size_t i = 0; i < rows; ++i) a[i * cols + j] = colbuf[i];
  }
}

}  // namespace

void dct2_2d(std::vector<double>& a, std::size_t rows, std::size_t cols) {
  SUBSPAR_REQUIRE(a.size() == rows * cols);
  separable_2d_planned(a.data(), rows, cols, /*forward=*/true);
}

void dct3_2d(std::vector<double>& a, std::size_t rows, std::size_t cols) {
  SUBSPAR_REQUIRE(a.size() == rows * cols);
  separable_2d_planned(a.data(), rows, cols, /*forward=*/false);
}

}  // namespace subspar
