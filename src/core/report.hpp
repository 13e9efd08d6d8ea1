// Accuracy and sparsity metrics shared by all benches (§3.7).
//
// The paper scores a sparsified representation Q G_w Q' entry-by-entry
// against the exact G: relative error per entry, its maximum, and the
// fraction of entries off by more than 10%. Large examples are scored on a
// column sample (Table 4.3).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"

namespace subspar {

struct ErrorStats {
  double max_rel_error = 0.0;  ///< over all entries above the noise floor
  /// Max relative error restricted to entries >= max|G| / 500 — the entry
  /// population the paper states its examples have ("the smallest entries
  /// are less than 1/500 of the largest off-diagonal entries", §5.1), for
  /// like-for-like comparison when a layout here produces a wider dynamic
  /// range (heavily shielded tiny contacts).
  double max_rel_error_significant = 0.0;
  double frac_above_10pct = 0.0;
  std::size_t entries = 0;
};

/// Entries with |G(i,j)| below this fraction of max|G| are excluded from
/// relative-error statistics: the reference columns themselves come from an
/// iterative black-box solver at ~1e-6 relative residual, so smaller entries
/// are solver noise, not signal.
inline constexpr double kEntryFloorRel = 1e-6;
/// The paper's stated entry dynamic range (1/500 of the largest).
inline constexpr double kSignificantRel = 2e-3;

/// Column j of the reconstruction Q G_w Q' (contact index space).
Vector reconstruct_column(const SparseMatrix& q, const SparseMatrix& gw, std::size_t j);

/// Compares the reconstruction against exact columns of G.
/// `g_exact_cols` holds the exact columns listed in `col_ids` (n rows).
ErrorStats reconstruction_error(const SparseMatrix& q, const SparseMatrix& gw,
                                const Matrix& g_exact_cols,
                                const std::vector<std::size_t>& col_ids);

/// Convenience overload for a full exact G (all columns).
ErrorStats reconstruction_error(const SparseMatrix& q, const SparseMatrix& gw,
                                const Matrix& g_exact);

}  // namespace subspar
