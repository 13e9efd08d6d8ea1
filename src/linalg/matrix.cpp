#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

namespace subspar {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transposed() const {
  // Cache-blocked: both the read and the write stream stay inside one
  // 32 x 32 block (8 KB each), instead of striding the full matrix. Inside
  // a block each output row is written contiguously; the strided reads hit
  // the block's cached source rows.
  constexpr std::size_t B = 32;
  Matrix t(cols_, rows_);
  for (std::size_t i0 = 0; i0 < rows_; i0 += B) {
    const std::size_t i1 = std::min(i0 + B, rows_);
    for (std::size_t j0 = 0; j0 < cols_; j0 += B) {
      const std::size_t j1 = std::min(j0 + B, cols_);
      for (std::size_t j = j0; j < j1; ++j)
        for (std::size_t i = i0; i < i1; ++i) t(j, i) = (*this)(i, j);
    }
  }
  return t;
}

Matrix& Matrix::operator+=(const Matrix& o) {
  SUBSPAR_REQUIRE(rows_ == o.rows_ && cols_ == o.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& o) {
  SUBSPAR_REQUIRE(rows_ == o.rows_ && cols_ == o.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double a) {
  for (auto& v : data_) v *= a;
  return *this;
}

Vector Matrix::col(std::size_t j) const {
  SUBSPAR_REQUIRE(j < cols_);
  Vector v(rows_);
  for (std::size_t i = 0; i < rows_; ++i) v[i] = (*this)(i, j);
  return v;
}

Vector Matrix::row(std::size_t i) const {
  SUBSPAR_REQUIRE(i < rows_);
  Vector v(cols_);
  std::copy(row_ptr(i), row_ptr(i) + cols_, v.begin());
  return v;
}

void Matrix::set_col(std::size_t j, const Vector& v) {
  SUBSPAR_REQUIRE(j < cols_ && v.size() == rows_);
  for (std::size_t i = 0; i < rows_; ++i) (*this)(i, j) = v[i];
}

Matrix Matrix::block(std::size_t r0, std::size_t c0, std::size_t nr, std::size_t nc) const {
  SUBSPAR_REQUIRE(r0 + nr <= rows_ && c0 + nc <= cols_);
  Matrix b(nr, nc);
  for (std::size_t i = 0; i < nr; ++i) {
    const double* src = row_ptr(r0 + i) + c0;
    std::copy(src, src + nc, b.row_ptr(i));
  }
  return b;
}

void Matrix::set_block(std::size_t r0, std::size_t c0, const Matrix& b) {
  SUBSPAR_REQUIRE(r0 + b.rows() <= rows_ && c0 + b.cols() <= cols_);
  for (std::size_t i = 0; i < b.rows(); ++i)
    std::copy(b.row_ptr(i), b.row_ptr(i) + b.cols(), row_ptr(r0 + i) + c0);
}

Matrix Matrix::hcat(const Matrix& a, const Matrix& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  SUBSPAR_REQUIRE(a.rows() == b.rows());
  Matrix c(a.rows(), a.cols() + b.cols());
  c.set_block(0, 0, a);
  c.set_block(0, a.cols(), b);
  return c;
}

double Matrix::frobenius_norm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::abs(v));
  return m;
}

Vector matvec(const Matrix& a, const Vector& x) {
  SUBSPAR_REQUIRE(a.cols() == x.size());
  Vector y(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* row = a.row_ptr(i);
    double s = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) s += row[j] * x[j];
    y[i] = s;
  }
  return y;
}

Vector matvec_t(const Matrix& a, const Vector& x) {
  SUBSPAR_REQUIRE(a.rows() == x.size());
  Vector y(a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* row = a.row_ptr(i);
    const double xi = x[i];
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += row[j] * xi;
  }
  return y;
}

// The matmul family lives in linalg/dense_kernels.cpp (blocked core).

}  // namespace subspar
