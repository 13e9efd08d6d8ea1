#include "linalg/cholesky.hpp"

#include <cmath>

#include "util/check.hpp"

namespace subspar {

Cholesky::Cholesky(const Matrix& a) : l_(a.rows(), a.cols()) {
  SUBSPAR_REQUIRE(a.rows() == a.cols());
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= l_(j, k) * l_(j, k);
    SUBSPAR_REQUIRE(d > 0.0);  // not positive definite otherwise
    const double ljj = std::sqrt(d);
    l_(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l_(i, k) * l_(j, k);
      l_(i, j) = s / ljj;
    }
  }
}

Vector Cholesky::solve(const Vector& b) const {
  SUBSPAR_REQUIRE(b.size() == l_.rows());
  Vector x(b.size());
  solve_block(b.data(), x.data(), 1);
  return x;
}

Matrix Cholesky::solve(const Matrix& b) const {
  SUBSPAR_REQUIRE(b.rows() == l_.rows());
  Matrix x(b.rows(), b.cols());
  solve_block(b.row_ptr(0), x.row_ptr(0), b.cols());
  return x;
}

void Cholesky::solve_block(const double* b, double* x, std::size_t k) const {
  const std::size_t n = l_.rows();
  // Forward: L y = b over ascending rows, y into x. Row i of b is read
  // before row i of x is written, so x may equal b.
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = l_.row_ptr(i);
    for (std::size_t j = 0; j < k; ++j) {
      double s = b[i * k + j];
      for (std::size_t m = 0; m < i; ++m) s -= li[m] * x[m * k + j];
      x[i * k + j] = s / li[i];
    }
  }
  // Backward: L' x = y over descending rows, in place.
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t j = 0; j < k; ++j) {
      double s = x[i * k + j];
      for (std::size_t m = i + 1; m < n; ++m) s -= l_(m, i) * x[m * k + j];
      x[i * k + j] = s / l_(i, i);
    }
  }
}

double Cholesky::log_det() const {
  double s = 0.0;
  for (std::size_t i = 0; i < l_.rows(); ++i) s += std::log(l_(i, i));
  return 2.0 * s;
}

}  // namespace subspar
