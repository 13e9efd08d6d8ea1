#include "lu.hpp"

#include <cmath>
#include <numeric>

#include "util/check.hpp"

namespace subspar {

LU::LU(const Matrix& a) : lu_(a), perm_(a.rows()) {
  SUBSPAR_REQUIRE(a.rows() == a.cols());
  const std::size_t n = a.rows();
  std::iota(perm_.begin(), perm_.end(), std::size_t{0});
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest magnitude in column k at or below the diagonal.
    std::size_t piv = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      if (std::abs(lu_(i, k)) > best) {
        best = std::abs(lu_(i, k));
        piv = i;
      }
    }
    if (best == 0.0) {
      singular_ = true;
      continue;
    }
    if (piv != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(piv, j));
      std::swap(perm_[k], perm_[piv]);
      sign_ = -sign_;
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      lu_(i, k) /= lu_(k, k);
      const double lik = lu_(i, k);
      if (lik == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) lu_(i, j) -= lik * lu_(k, j);
    }
  }
}

Vector LU::solve(const Vector& b) const {
  SUBSPAR_REQUIRE(!singular_);
  const std::size_t n = lu_.rows();
  SUBSPAR_REQUIRE(b.size() == n);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[perm_[i]];
    for (std::size_t k = 0; k < i; ++k) s -= lu_(i, k) * y[k];
    y[i] = s;
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= lu_(ii, k) * x[k];
    x[ii] = s / lu_(ii, ii);
  }
  return x;
}

double LU::det() const {
  if (singular_) return 0.0;
  double d = sign_;
  for (std::size_t i = 0; i < lu_.rows(); ++i) d *= lu_(i, i);
  return d;
}

}  // namespace subspar
