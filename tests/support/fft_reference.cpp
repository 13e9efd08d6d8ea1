#include "fft_reference.hpp"

#include <cmath>
#include <map>

#include "transform/dct.hpp"
#include "util/check.hpp"

namespace subspar {
namespace {
constexpr double kPi = 3.14159265358979323846;
}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n) {
  SUBSPAR_REQUIRE(is_power_of_two(n));
  rev_.resize(n);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    rev_[i] = j;
  }
  roots_.resize(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double ang = -2.0 * kPi * static_cast<double>(k) / static_cast<double>(n);
    roots_[k] = Complex(std::cos(ang), std::sin(ang));
  }
}

void FftPlan::run(Complex* x, bool inverse) const {
  const std::size_t n = n_;
  if (n <= 1) return;
  for (std::size_t i = 1; i < n; ++i)
    if (i < rev_[i]) std::swap(x[i], x[rev_[i]]);
  // Danielson-Lanczos butterflies; stage `len` uses every (n/len)-th root.
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t stride = n / len;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex w =
            inverse ? std::conj(roots_[k * stride]) : roots_[k * stride];
        const Complex u = x[i + k];
        const Complex v = x[i + k + len / 2] * w;
        x[i + k] = u + v;
        x[i + k + len / 2] = u - v;
      }
    }
  }
}

void FftPlan::forward(Complex* x) const { run(x, /*inverse=*/false); }

void FftPlan::inverse(Complex* x) const {
  run(x, /*inverse=*/true);
  const double inv = 1.0 / static_cast<double>(n_);
  for (std::size_t i = 0; i < n_; ++i) x[i] *= inv;
}

const FftPlan& fft_plan(std::size_t n) {
  thread_local std::map<std::size_t, FftPlan> cache;
  auto it = cache.find(n);
  if (it == cache.end()) it = cache.emplace(n, FftPlan(n)).first;
  return it->second;
}

void fft(std::vector<Complex>& x) { fft_plan(x.size()).forward(x.data()); }

void ifft(std::vector<Complex>& x) { fft_plan(x.size()).inverse(x.data()); }

std::vector<Complex> dft_naive(const std::vector<Complex>& x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex s(0.0, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = -2.0 * kPi * static_cast<double>(j * k) / static_cast<double>(n);
      s += x[j] * Complex(std::cos(ang), std::sin(ang));
    }
    out[k] = s;
  }
  return out;
}

namespace {

struct Twiddles {
  double s0, sk;
  std::vector<double> tc, ts;  // cos, sin of -pi k / 2N
};

Twiddles twiddles(std::size_t n) {
  SUBSPAR_REQUIRE(is_power_of_two(n) && n > 1);
  Twiddles t{std::sqrt(1.0 / static_cast<double>(n)), std::sqrt(2.0 / static_cast<double>(n)),
             std::vector<double>(n), std::vector<double>(n)};
  for (std::size_t k = 0; k < n; ++k) {
    const double ang = -kPi * static_cast<double>(k) / (2.0 * static_cast<double>(n));
    t.tc[k] = std::cos(ang);
    t.ts[k] = std::sin(ang);
  }
  return t;
}

}  // namespace

std::vector<double> makhoul_dct2(const std::vector<double>& in) {
  const std::size_t n = in.size();
  const Twiddles t = twiddles(n);
  std::vector<double> x = in;
  std::vector<Complex> scratch(n);
  // Makhoul even-odd permutation + length-N FFT.
  Complex* v = scratch.data();
  for (std::size_t j = 0; j < n / 2; ++j) {
    v[j] = Complex(x[2 * j], 0.0);
    v[n - 1 - j] = Complex(x[2 * j + 1], 0.0);
  }
  fft_plan(n).forward(v);
  // The scalar backend's post-twiddle; std::complex<double> is
  // array-compatible with interleaved (re, im) doubles.
  const double* vd = reinterpret_cast<const double*>(v);
  x[0] = vd[0] * t.s0;
  for (std::size_t j = 1; j < n; ++j)
    x[j] = (t.tc[j] * vd[2 * j] - t.ts[j] * vd[2 * j + 1]) * t.sk;
  return x;
}

std::vector<double> makhoul_dct3(const std::vector<double>& in) {
  const std::size_t n = in.size();
  const Twiddles t = twiddles(n);
  std::vector<double> x = in;
  std::vector<Complex> scratch(n);
  // The scalar backend's pre-twiddle: V_k = e^{+i pi k / 2N} (C_k - i
  // C_{N-k}); e^{+i a} has cos = tc, sin = -ts.
  Complex* v = scratch.data();
  double* vd = reinterpret_cast<double*>(v);
  vd[0] = x[0] / t.s0;
  vd[1] = 0.0;
  for (std::size_t j = 1; j < n; ++j) {
    const double ck = x[j] / t.sk;
    const double cnk = x[n - j] / t.sk;
    const double c = t.tc[j], s = -t.ts[j];
    vd[2 * j] = c * ck + s * cnk;
    vd[2 * j + 1] = s * ck - c * cnk;
  }
  fft_plan(n).inverse(v);
  for (std::size_t j = 0; j < n / 2; ++j) {
    x[2 * j] = v[j].real();
    x[2 * j + 1] = v[n - 1 - j].real();
  }
  return x;
}

}  // namespace subspar
