#include "direct_threshold.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "util/check.hpp"

namespace subspar {

ErrorStats direct_threshold_error(const Matrix& g_exact, double keep_fraction) {
  SUBSPAR_REQUIRE(keep_fraction > 0.0 && keep_fraction <= 1.0);
  const std::size_t n = g_exact.rows();
  std::vector<double> mags;
  mags.reserve(n * n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) mags.push_back(std::abs(g_exact(i, j)));
  const auto keep = static_cast<std::size_t>(keep_fraction * static_cast<double>(mags.size()));
  std::nth_element(mags.begin(), mags.begin() + static_cast<std::ptrdiff_t>(keep), mags.end(),
                   std::greater<double>());
  const double cut = mags[keep];

  ErrorStats stats;
  std::size_t above = 0;
  const double gmax = g_exact.max_abs();
  const double floor = kEntryFloorRel * gmax;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double exact = g_exact(i, j);
      if (std::abs(exact) <= floor) continue;
      const double approx = std::abs(exact) > cut ? exact : 0.0;
      const double rel = std::abs(approx - exact) / std::abs(exact);
      stats.max_rel_error = std::max(stats.max_rel_error, rel);
      if (std::abs(exact) >= kSignificantRel * gmax)
        stats.max_rel_error_significant = std::max(stats.max_rel_error_significant, rel);
      above += rel > 0.10;
      ++stats.entries;
    }
  }
  stats.frac_above_10pct =
      stats.entries == 0 ? 0.0 : static_cast<double>(above) / static_cast<double>(stats.entries);
  return stats;
}

}  // namespace subspar
