#include "linalg/eig_sym.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.hpp"

namespace subspar {

EigSym eig_sym(const Matrix& a_in) {
  SUBSPAR_REQUIRE(a_in.rows() == a_in.cols());
  const std::size_t n = a_in.rows();
  // Symmetrize to guard against roundoff-level asymmetry in callers.
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = 0.5 * (a_in(i, j) + a_in(j, i));

  Matrix v = Matrix::identity(n);
  const int max_sweeps = 60;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) off += a(i, j) * a(i, j);
    // Relative to ||A||: an absolute floor would stop a tiny-scale matrix
    // (a Gram block at rounding level, ||A|| ~ 1e-29) before its first
    // sweep and return its diagonal as the spectrum.
    if (std::sqrt(off) <= 1e-14 * a.frobenius_norm()) break;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        if (a(p, q) == 0.0) continue;
        const double theta = (a(q, q) - a(p, p)) / (2.0 * a(p, q));
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(1.0 + theta * theta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        // A <- J' A J applied to rows and columns p, q.
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a(k, p), akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a(p, k), aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p), vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return a(x, x) < a(y, y); });

  EigSym out;
  out.values = Vector(n);
  out.vectors = Matrix(n, n);
  for (std::size_t jj = 0; jj < n; ++jj) {
    out.values[jj] = a(order[jj], order[jj]);
    for (std::size_t i = 0; i < n; ++i) out.vectors(i, jj) = v(i, order[jj]);
  }
  return out;
}

}  // namespace subspar
