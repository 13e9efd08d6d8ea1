// Dense LU factorization with partial pivoting: the linalg tests' reference
// for general (non-symmetric) solves and determinants.
#pragma once

#include "linalg/matrix.hpp"

namespace subspar {

class LU {
 public:
  explicit LU(const Matrix& a);

  Vector solve(const Vector& b) const;
  double det() const;
  bool singular() const { return singular_; }

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
  int sign_ = 1;
  bool singular_ = false;
};

}  // namespace subspar
