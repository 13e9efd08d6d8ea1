// The radix-2 std::complex FFT and the Makhoul DCT on top of it, as the
// library ran them before DctPlan's split-array line kernel: the bitwise
// reference the transform tests hold that kernel to.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace subspar {

using Complex = std::complex<double>;

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
/// lifetime of the calling thread.
const FftPlan& fft_plan(std::size_t n);

/// In-place forward FFT through the cached plan. N must be a power of two.
void fft(std::vector<Complex>& x);

/// In-place inverse FFT including the 1/N normalization.
void ifft(std::vector<Complex>& x);

/// O(N^2) reference DFT (any N).
std::vector<Complex> dft_naive(const std::vector<Complex>& x);

/// Orthonormal DCT-II and DCT-III of a power-of-two line (N >= 2) by
/// Makhoul's even/odd permutation, fft_plan(N) and the scalar twiddle
/// loops: DctPlan's power-of-two path as it was before the line kernel.
std::vector<double> makhoul_dct2(const std::vector<double>& x);
std::vector<double> makhoul_dct3(const std::vector<double>& x);

}  // namespace subspar
