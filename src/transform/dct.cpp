#include "transform/dct.hpp"

#include <cmath>
#include <map>

#include "util/check.hpp"

namespace subspar {
namespace {
constexpr double kPi = 3.14159265358979323846;

double scale0(std::size_t n) { return std::sqrt(1.0 / static_cast<double>(n)); }
double scalek(std::size_t n) { return std::sqrt(2.0 / static_cast<double>(n)); }

// u, v <- u + v w, u - v w with the std::complex product
// v w = (vr wr - vi wi, vr wi + vi wr).
inline void butterfly(double& ur, double& ui, double& vr, double& vi, double wr, double wi) {
  const double tr = vr * wr - vi * wi;
  const double ti = vr * wi + vi * wr;
  vr = ur - tr;
  vi = ui - ti;
  ur = ur + tr;
  ui = ui + ti;
}

// h butterflies between the disjoint runs u and v, root k for pair k.
inline void butterfly_run(double* __restrict ur, double* __restrict ui, double* __restrict vr,
                          double* __restrict vi, const double* __restrict wr,
                          const double* __restrict wi, std::size_t h) {
  for (std::size_t k = 0; k < h; ++k) butterfly(ur[k], ui[k], vr[k], vi[k], wr[k], wi[k]);
}

}  // namespace

DctPlan::DctPlan(std::size_t n) : n_(n) {
  SUBSPAR_REQUIRE(is_power_of_two(n));
  if (n == 1) return;  // the identity: no tables
  s0_ = scale0(n);
  sk_ = scalek(n);
  inv_n_ = 1.0 / static_cast<double>(n);
  re_.resize(n);
  im_.resize(n);
  rev_.resize(n);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    rev_[i] = j;
  }
  // Makhoul's split puts x_{2m} at m and x_{2m+1} at N-1-m; slot i of the
  // bit-reversed FFT input holds entry rev_[i] of that sequence.
  gather_.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    gather_[i] = rev_[i] < n / 2 ? 2 * rev_[i] : 2 * (n - 1 - rev_[i]) + 1;
  tw_cos_.resize(n);
  tw_sin_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double ang = -kPi * static_cast<double>(k) / (2.0 * static_cast<double>(n));
    tw_cos_[k] = std::cos(ang);
    tw_sin_[k] = std::sin(ang);
  }
  root_re_.resize(n - 1);
  root_im_.resize(n - 1);
  root_im_inv_.resize(n - 1);
  for (std::size_t h = 1; h < n; h <<= 1) {
    for (std::size_t k = 0; k < h; ++k) {
      const std::size_t j = k * (n / (2 * h));
      const double ang = -2.0 * kPi * static_cast<double>(j) / static_cast<double>(n);
      root_re_[h - 1 + k] = std::cos(ang);
      root_im_[h - 1 + k] = std::sin(ang);
      root_im_inv_[h - 1 + k] = -root_im_[h - 1 + k];
    }
  }
}

// Radix-2 decimation-in-time stages over the bit-reversed line in re_/im_:
// the first two in registers, four entries at a time, then one run of h
// butterflies per group. Each butterfly is the std::complex FFT's
// u + v w, u - v w, operand for operand.
void DctPlan::butterflies(const double* root_im) const {
  const std::size_t n = n_;
  double* re = re_.data();
  double* im = im_.data();
  const double* root_re = root_re_.data();
  std::size_t h = 1;
  if (n >= 4) {
    for (std::size_t i = 0; i < n; i += 4) {
      double* r = re + i;
      double* m = im + i;
      butterfly(r[0], m[0], r[1], m[1], root_re[0], root_im[0]);
      butterfly(r[2], m[2], r[3], m[3], root_re[0], root_im[0]);
      butterfly(r[0], m[0], r[2], m[2], root_re[1], root_im[1]);
      butterfly(r[1], m[1], r[3], m[3], root_re[2], root_im[2]);
    }
    h = 4;
  }
  for (; h < n; h <<= 1)
    for (std::size_t i = 0; i < n; i += 2 * h)
      butterfly_run(re + i, im + i, re + i + h, im + i + h, root_re + (h - 1), root_im + (h - 1), h);
}

void DctPlan::dct2(double* x, std::size_t stride) const {
  if (n_ == 1) return;
  const std::size_t n = n_;
  double* re = re_.data();
  double* im = im_.data();
  for (std::size_t i = 0; i < n; ++i) {
    re[i] = x[gather_[i] * stride];
    im[i] = 0.0;
  }
  butterflies(root_im_.data());
  // Post-twiddle: X_k = s_k Re(e^{-i pi k / 2N} V_k).
  x[0] = re[0] * s0_;
  for (std::size_t k = 1; k < n; ++k)
    x[k * stride] = (tw_cos_[k] * re[k] - tw_sin_[k] * im[k]) * sk_;
}

void DctPlan::dct3(double* x, std::size_t stride) const {
  if (n_ == 1) return;
  const std::size_t n = n_;
  double* re = re_.data();
  double* im = im_.data();
  // Pre-twiddle into the bit-reversed slots: V_k = e^{+i pi k / 2N}
  // (C_k - i C_{N-k}) with C = X / s; the conjugate symmetry of the FFT of
  // the real permuted sequence gives C_{N-k} = -Im(e^{-i pi k/2N} V_k).
  // e^{+i a} has cos = tw_cos, sin = -tw_sin.
  re[0] = x[0] / s0_;
  im[0] = 0.0;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t k = rev_[i];
    const double ck = x[k * stride] / sk_;
    const double cnk = x[(n - k) * stride] / sk_;
    const double c = tw_cos_[k], s = -tw_sin_[k];
    re[i] = c * ck + s * cnk;
    im[i] = s * ck - c * cnk;
  }
  butterflies(root_im_inv_.data());
  // Undo the even/odd split; the inverse FFT's 1/N scales the real parts.
  for (std::size_t j = 0; j < n / 2; ++j) {
    x[2 * j * stride] = re[j] * inv_n_;
    x[(2 * j + 1) * stride] = re[n - 1 - j] * inv_n_;
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
  // Per-thread plan cache: thread_local IS the synchronization discipline —
  // no cross-thread sharing, so no capability to annotate and nothing for
  // -Wthread-safety to prove. tools/subspar_lint.py keeps naked mutexes out
  // of this module; a shared cache would have to move onto util/sync.hpp.
  thread_local std::map<std::size_t, DctPlan> cache;
  auto it = cache.find(n);
  if (it == cache.end()) it = cache.emplace(n, DctPlan(n)).first;
  return it->second;
}

std::vector<double> dct2(const std::vector<double>& x) {
  std::vector<double> y = x;
  dct_plan(y.size()).dct2(y.data());
  return y;
}

std::vector<double> dct3(const std::vector<double>& y) {
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

// One grid: rows through the length-`cols` plan, then columns through the
// length-`rows` plan, each line in place.
void separable_2d_planned(double* a, std::size_t rows, std::size_t cols, bool forward) {
  const DctPlan& row_plan = dct_plan(cols);
  const DctPlan& col_plan = dct_plan(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    double* row = a + i * cols;
    forward ? row_plan.dct2(row) : row_plan.dct3(row);
  }
  for (std::size_t j = 0; j < cols; ++j)
    forward ? col_plan.dct2(a + j, cols) : col_plan.dct3(a + j, cols);
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
