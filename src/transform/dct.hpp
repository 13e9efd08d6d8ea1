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
// Hot paths go through cached `DctPlan`s, one grid line per call, read and
// written in place at any stride (a grid row or a grid column).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace subspar {

/// True for 1, 2, 4, ...: the lengths DctPlan transforms in O(N log N),
/// and the grid and tree sides the solvers and the quadtree accept.
inline bool is_power_of_two(std::size_t n) { return n > 0 && (n & (n - 1)) == 0; }

/// Precomputed orthonormal DCT-II / DCT-III of one fixed power-of-two
/// length; the length-1 transform is the identity.
///
/// The plan runs Makhoul's algorithm as one line kernel, with no plan
/// lookup, complex buffer or backend call per line: one
/// precomputed gather applies the even/odd split and the bit reversal at
/// once, radix-2 butterflies run on split real/imaginary scratch over
/// per-stage contiguous root tables (the first two stages in registers),
/// and the DCT-II post-twiddle reads (the DCT-III pre-twiddle writes) that
/// scratch directly. Every butterfly does the multiplies and adds of a
/// std::complex<double> radix-2 FFT, in the same order, so finite inputs,
/// and NaN inputs of one payload, give that path's bits (docs/
/// ARCHITECTURE.md, *Transforms*, has the two looser cases).
///
/// The scratch buffers make the transform methods non-reentrant: share
/// plans only through the per-thread `dct_plan()` cache (or give each
/// thread its own instance).
class DctPlan {
 public:
  /// Throws std::invalid_argument when n is not a power of two.
  explicit DctPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// In-place orthonormal DCT-II of the line x[0], x[stride], ...,
  /// x[(n-1) stride]; the entries between them are not touched.
  void dct2(double* x, std::size_t stride = 1) const;
  /// In-place orthonormal DCT-III (inverse of dct2), same line layout.
  void dct3(double* x, std::size_t stride = 1) const;

 private:
  void butterflies(const double* root_im) const;

  std::size_t n_;
  double s0_ = 0.0, sk_ = 0.0;      ///< orthonormal scales sqrt(1/N), sqrt(2/N)
  double inv_n_ = 0.0;              ///< 1/N, the inverse FFT's normalization
  std::vector<std::size_t> rev_;    ///< bit-reversal permutation
  std::vector<std::size_t> gather_; ///< DCT-II source of FFT slot i: Makhoul index of rev_[i]
  std::vector<double> tw_cos_;      ///< cos(-pi k / 2N)
  std::vector<double> tw_sin_;      ///< sin(-pi k / 2N)
  /// Roots e^{-2 pi i j / N}, j < N/2, stage by stage: the stage with
  /// half-length h uses j = k N / 2h for k < h, stored from offset h - 1.
  std::vector<double> root_re_, root_im_;
  std::vector<double> root_im_inv_; ///< -root_im_: the inverse transform's conjugate roots
  mutable std::vector<double> re_;  ///< line real parts
  mutable std::vector<double> im_;  ///< line imaginary parts
};

/// The orthonormal DCT-II matrix of length n: row k is mode k sampled at
/// the n grid points, so C x is dct2(x) and C' y is dct3(y). Feeds the
/// GEMM-based lateral transforms of FastPoisson3D.
Matrix dct2_matrix(std::size_t n);

/// Per-thread plan cache: the returned reference stays valid for the
/// lifetime of the calling thread.
const DctPlan& dct_plan(std::size_t n);

/// Orthonormal DCT-II through the cached plan (power-of-two N).
std::vector<double> dct2(const std::vector<double>& x);
/// Orthonormal DCT-III (inverse of dct2), power-of-two N.
std::vector<double> dct3(const std::vector<double>& x);

/// O(N^2) reference implementations (any N), for validation.
std::vector<double> dct2_naive(const std::vector<double>& x);
std::vector<double> dct3_naive(const std::vector<double>& x);

/// Separable 2-D transforms on a row-major rows x cols buffer, in place;
/// rows and cols are powers of two.
void dct2_2d(std::vector<double>& a, std::size_t rows, std::size_t cols);
void dct3_2d(std::vector<double>& a, std::size_t rows, std::size_t cols);

}  // namespace subspar
