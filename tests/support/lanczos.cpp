#include "lanczos.hpp"

#include <cmath>

#include "linalg/eig_sym.hpp"
#include "linalg/matrix.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace subspar {

SpectrumEstimate lanczos_extremes(const LinearOp& a, std::size_t n, std::size_t iterations,
                                  std::uint64_t seed) {
  SUBSPAR_REQUIRE(n > 0);
  const std::size_t m = std::min(iterations, n);
  Rng rng(seed);
  Vector q(n);
  for (auto& v : q) v = rng.normal();
  q *= 1.0 / norm2(q);

  // Lanczos three-term recurrence with full reorthogonalization (cheap at
  // m <= ~40 and removes ghost eigenvalues).
  std::vector<Vector> basis;
  basis.push_back(q);
  Vector alpha(m), beta(m);  // beta[k] couples step k to k+1
  std::size_t steps = 0;
  Vector q_prev(n);
  double beta_prev = 0.0;
  for (std::size_t k = 0; k < m; ++k) {
    Vector w = a(basis[k]);
    alpha[k] = dot(w, basis[k]);
    w.axpy(-alpha[k], basis[k]);
    if (k > 0) w.axpy(-beta_prev, basis[k - 1]);
    for (const Vector& b : basis) w.axpy(-dot(w, b), b);  // reorthogonalize
    const double nb = norm2(w);
    ++steps;
    if (nb <= 1e-13 * std::abs(alpha[0]) || k + 1 == m) break;
    beta[k] = nb;
    beta_prev = nb;
    basis.push_back((1.0 / nb) * w);
  }

  Matrix t(steps, steps);
  for (std::size_t k = 0; k < steps; ++k) {
    t(k, k) = alpha[k];
    if (k + 1 < steps) {
      t(k, k + 1) = beta[k];
      t(k + 1, k) = beta[k];
    }
  }
  const EigSym dec = eig_sym(t);
  SpectrumEstimate out;
  out.lambda_min = dec.values[0];
  out.lambda_max = dec.values[steps - 1];
  return out;
}

}  // namespace subspar
