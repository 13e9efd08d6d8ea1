// Dense row-major matrix with the BLAS-2/3 kernels used throughout subspar.
// All factorizations live in their own headers (cholesky.hpp, qr.hpp,
// svd.hpp, eig_sym.hpp); this type is deliberately plain data plus
// arithmetic.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/vector.hpp"
#include "util/check.hpp"

namespace subspar {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix identity(std::size_t n);

  /// Re-shapes to rows x cols over the same buffer, whose capacity never
  /// shrinks, so a block kept across calls is re-shaped without a fresh
  /// allocation. The first rows * cols entries keep their storage-order
  /// values (entries past the old size are zero); callers that re-shape a
  /// block for new contents overwrite every entry.
  void reshape(std::size_t rows, std::size_t cols) {
    data_.resize(rows * cols);
    rows_ = rows;
    cols_ = cols;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(std::size_t i, std::size_t j) { return data_[i * cols_ + j]; }
  double operator()(std::size_t i, std::size_t j) const { return data_[i * cols_ + j]; }
  double* row_ptr(std::size_t i) { return data_.data() + i * cols_; }
  const double* row_ptr(std::size_t i) const { return data_.data() + i * cols_; }

  Matrix transposed() const;

  Matrix& operator+=(const Matrix& o);
  Matrix& operator-=(const Matrix& o);
  Matrix& operator*=(double a);
  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(double a, Matrix m) { return m *= a; }

  Vector col(std::size_t j) const;
  Vector row(std::size_t i) const;
  void set_col(std::size_t j, const Vector& v);

  /// Contiguous block copy: rows [r0, r0+nr) x cols [c0, c0+nc).
  Matrix block(std::size_t r0, std::size_t c0, std::size_t nr, std::size_t nc) const;
  void set_block(std::size_t r0, std::size_t c0, const Matrix& b);

  /// Horizontal concatenation [A B] (rows must match; empty operands allowed).
  static Matrix hcat(const Matrix& a, const Matrix& b);

  double frobenius_norm() const;
  double max_abs() const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

/// y = A x
Vector matvec(const Matrix& a, const Vector& x);
/// y = A' x
Vector matvec_t(const Matrix& a, const Vector& x);

// Dense products run through a register-tiled, cache-blocked kernel
// (linalg/dense_kernels.cpp). Large outputs are partitioned into fixed
// tiles dispatched over the util/parallel pool; each tile is computed by
// exactly one task with a fixed loop order, so results are bit-identical
// for any SUBSPAR_THREADS. Prefer the *_add variants when accumulating
// (C += alpha A B) — they skip the product temporary entirely — and
// gram_tn for A'A, which computes only the upper triangle and mirrors it.

/// C = A B
Matrix matmul(const Matrix& a, const Matrix& b);
/// C = A' B
Matrix matmul_tn(const Matrix& a, const Matrix& b);
/// C = A B'
Matrix matmul_nt(const Matrix& a, const Matrix& b);
/// C += alpha A B, in place (no temporary).
void matmul_add(Matrix& c, const Matrix& a, const Matrix& b, double alpha = 1.0);
/// C += alpha A' B, in place.
void matmul_tn_add(Matrix& c, const Matrix& a, const Matrix& b, double alpha = 1.0);
/// C += alpha A B', in place.
void matmul_nt_add(Matrix& c, const Matrix& a, const Matrix& b, double alpha = 1.0);
/// A' A: exactly symmetric (upper triangle computed, lower mirrored).
Matrix gram_tn(const Matrix& a);

}  // namespace subspar
