// Orthonormal discrete cosine transforms (DCT-II and its inverse DCT-III).
//
// The cosine modes cos(m pi (j+1/2)/N) are the eigenvectors of both the
// Neumann-boundary grid Laplacian (fast-Poisson preconditioner, §2.2.2) and
// the layered-substrate surface operator (eigenfunction solver, §2.3.1), so
// these transforms diagonalize both.
//
// Convention: with s_0 = sqrt(1/N), s_k = sqrt(2/N),
//   (dct2 x)_k = s_k * sum_j x_j cos(pi k (2j+1) / (2N)),
// which makes the transform matrix orthogonal: dct3 = dct2^T = dct2^{-1}.
//
// Hot paths go through cached `DctPlan`s (precomputed Makhoul twiddles, the
// underlying FftPlan, and reusable scratch), one grid line per call.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "transform/fft.hpp"

namespace subspar {

/// Precomputed orthonormal DCT-II / DCT-III of one fixed length: the
/// Makhoul e^{-i pi k / 2N} twiddle table, the normalization scales, and a
/// reusable complex scratch buffer. Power-of-two lengths run through the
/// cached FftPlan in O(N log N); other lengths precompute the dense
/// transform matrix once and apply it in O(N^2) without any trigonometry
/// per call.
///
/// The scratch buffer makes the transform methods non-reentrant: share
/// plans only through the per-thread `dct_plan()` cache (or give each
/// thread its own instance).
class DctPlan {
 public:
  explicit DctPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// In-place orthonormal DCT-II of x[0..n). The twiddle/dense loops run on
  /// the active kernel backend.
  void dct2(double* x) const;
  /// In-place orthonormal DCT-III (inverse of dct2).
  void dct3(double* x) const;

 private:
  std::size_t n_;
  bool fast_;                       ///< power-of-two FFT path
  double s0_ = 0.0, sk_ = 0.0;      ///< orthonormal scales sqrt(1/N), sqrt(2/N)
  std::vector<double> tw_cos_;      ///< cos(-pi k / 2N)
  std::vector<double> tw_sin_;      ///< sin(-pi k / 2N)
  Matrix dense_;                    ///< dct2_matrix(n) (slow path)
  Matrix dense_t_;                  ///< its transpose: dct3 rows contiguous
  mutable std::vector<Complex> scratch_;
};

/// The orthonormal DCT-II matrix of length n: row k is mode k sampled at
/// the n grid points, so C x is dct2(x) and C' y is dct3(y). Feeds the
/// dense-table DctPlan and the GEMM-based lateral transforms of
/// FastPoisson3D.
Matrix dct2_matrix(std::size_t n);

/// Per-thread plan cache (same lifetime contract as fft_plan()).
const DctPlan& dct_plan(std::size_t n);

/// Orthonormal DCT-II through the cached plan. Fast (FFT-based) for
/// power-of-two N, O(N^2) otherwise.
std::vector<double> dct2(const std::vector<double>& x);
/// Orthonormal DCT-III (inverse of dct2).
std::vector<double> dct3(const std::vector<double>& x);

/// O(N^2) reference implementations (any N), for validation.
std::vector<double> dct2_naive(const std::vector<double>& x);
std::vector<double> dct3_naive(const std::vector<double>& x);

/// Separable 2-D transforms on a row-major rows x cols buffer, in place.
void dct2_2d(std::vector<double>& a, std::size_t rows, std::size_t cols);
void dct3_2d(std::vector<double>& a, std::size_t rows, std::size_t cols);

}  // namespace subspar
