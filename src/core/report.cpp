#include "core/report.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/parallel.hpp"

namespace subspar {

Vector reconstruct_column(const SparseMatrix& q, const SparseMatrix& gw, std::size_t j) {
  const std::size_t n = q.rows();
  SUBSPAR_REQUIRE(j < n);
  // Q G_w Q' e_j: row j of Q is Q' e_j.
  Vector qtej(q.cols());
  for (std::size_t k = q.row_begin(j); k < q.row_end(j); ++k) qtej[q.col_index(k)] = q.value(k);
  return q.apply(gw.apply(qtej));
}

namespace {

ErrorStats compare_columns(const SparseMatrix& q, const SparseMatrix& gw,
                           const Matrix& g_exact_cols, const std::vector<std::size_t>& col_ids) {
  SUBSPAR_REQUIRE(g_exact_cols.cols() == col_ids.size());
  ErrorStats stats;
  std::size_t above = 0;
  const double gmax = g_exact_cols.max_abs();
  const double floor = kEntryFloorRel * gmax;
  const double significant = kSignificantRel * gmax;
  // Reconstructed columns are independent: fan out over the pool, then
  // reduce in fixed column order (stats are max/counts, so the result is
  // schedule-independent anyway).
  std::vector<Vector> approx_cols(col_ids.size());
  parallel_for(col_ids.size(),
               [&](std::size_t c) { approx_cols[c] = reconstruct_column(q, gw, col_ids[c]); });
  for (std::size_t c = 0; c < col_ids.size(); ++c) {
    const Vector& approx = approx_cols[c];
    for (std::size_t i = 0; i < approx.size(); ++i) {
      const double exact = g_exact_cols(i, c);
      if (std::abs(exact) <= floor) continue;  // below solver resolution
      const double rel = std::abs(approx[i] - exact) / std::abs(exact);
      stats.max_rel_error = std::max(stats.max_rel_error, rel);
      if (std::abs(exact) >= significant)
        stats.max_rel_error_significant = std::max(stats.max_rel_error_significant, rel);
      above += rel > 0.10;
      ++stats.entries;
    }
  }
  stats.frac_above_10pct =
      stats.entries == 0 ? 0.0 : static_cast<double>(above) / static_cast<double>(stats.entries);
  return stats;
}

}  // namespace

ErrorStats reconstruction_error(const SparseMatrix& q, const SparseMatrix& gw,
                                const Matrix& g_exact_cols,
                                const std::vector<std::size_t>& col_ids) {
  return compare_columns(q, gw, g_exact_cols, col_ids);
}

ErrorStats reconstruction_error(const SparseMatrix& q, const SparseMatrix& gw,
                                const Matrix& g_exact) {
  std::vector<std::size_t> cols(g_exact.cols());
  for (std::size_t j = 0; j < cols.size(); ++j) cols[j] = j;
  return compare_columns(q, gw, g_exact, cols);
}

}  // namespace subspar
