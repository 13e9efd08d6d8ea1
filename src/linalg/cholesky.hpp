// Dense Cholesky factorization A = L L' for symmetric positive definite A.
// The exact counterpart of the incomplete-Cholesky preconditioner of
// §2.2.2; it solves the surface solver's block-Jacobi blocks, the small
// Gram systems of blocked PCG and the solvers' dense direct fallbacks.
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"

namespace subspar {

class Cholesky {
 public:
  /// Factors the SPD matrix `a`. Throws std::invalid_argument if a pivot is
  /// not strictly positive (matrix not positive definite to working
  /// precision).
  explicit Cholesky(const Matrix& a);

  const Matrix& lower() const { return l_; }
  /// The k = 1 case of solve_block.
  Vector solve(const Vector& b) const;
  /// solve_block over all of b's columns.
  Matrix solve(const Matrix& b) const;
  /// Solves A X = B for the n x k row-major block B at `b` (row i's k
  /// entries contiguous at b + i * k), writing X at `x`, which may equal
  /// `b`. Each column takes the same substitution sweeps, in the same
  /// order, whatever k is.
  void solve_block(const double* b, double* x, std::size_t k) const;
  /// log(det A) = 2 sum log diag(L); cheap conditioning diagnostic.
  double log_det() const;

 private:
  Matrix l_;
};

}  // namespace subspar
