// Iterative radix-2 complex FFT.
//
// The fast DCTs used by the eigenfunction substrate solver (§2.3.1) and the
// fast-Poisson preconditioner (§2.2.2) are built on this transform. Hot
// paths (every PCG iteration of both substrate solvers runs several 2-D
// DCTs) go through cached `FftPlan`s, which precompute the bit-reversal
// permutation and the twiddle-factor table once per length instead of
// re-deriving them with sin/cos on every call.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace subspar {

using Complex = std::complex<double>;

bool is_power_of_two(std::size_t n);

/// Precomputed radix-2 FFT of one fixed power-of-two length: bit-reversal
/// permutation plus the e^{-2 pi i k / N} root table, shared by the forward
/// and inverse directions. Plans are immutable after construction and safe
/// to share across threads.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// In-place forward FFT, X_k = sum_j x_j e^{-2 pi i j k / N}.
  void forward(Complex* x) const;
  /// In-place inverse FFT including the 1/N normalization.
  void inverse(Complex* x) const;

 private:
  void run(Complex* x, bool inverse) const;

  std::size_t n_;
  std::vector<std::size_t> rev_;  ///< bit-reversal permutation
  std::vector<Complex> roots_;    ///< e^{-2 pi i k / N}, k < N/2
};

/// Per-thread plan cache: the returned reference stays valid for the
/// lifetime of the calling thread. All plan-based entry points (fft, ifft,
/// the DCTs) share this cache.
const FftPlan& fft_plan(std::size_t n);

/// In-place forward FFT through the cached plan. N must be a power of two.
void fft(std::vector<Complex>& x);

/// In-place inverse FFT including the 1/N normalization.
void ifft(std::vector<Complex>& x);

/// O(N^2) reference DFT for validation in tests (any N).
std::vector<Complex> dft_naive(const std::vector<Complex>& x);

}  // namespace subspar
