// Lanczos extreme-eigenvalue estimation for SPD black-box operators, for
// the tests.
//
// It quantifies what the fast-solver preconditioners of §2.2.2 actually
// do: PCG iteration counts track sqrt(cond(M^{-1/2} A M^{-1/2})), so
// estimating the preconditioned spectrum's edges explains Table 2.1.
#pragma once

#include <cstddef>

#include "linalg/iterative.hpp"

namespace subspar {

struct SpectrumEstimate {
  double lambda_min = 0.0;
  double lambda_max = 0.0;
  double condition() const { return lambda_min > 0.0 ? lambda_max / lambda_min : 0.0; }
};

/// Estimates the extreme eigenvalues of the SPD operator `a` (dimension n)
/// with `iterations` Lanczos steps from a seeded random start. Ritz values
/// converge to the spectrum edges from inside, so the condition estimate is
/// a (usually tight) lower bound.
SpectrumEstimate lanczos_extremes(const LinearOp& a, std::size_t n, std::size_t iterations = 40,
                                  std::uint64_t seed = 99);

}  // namespace subspar
