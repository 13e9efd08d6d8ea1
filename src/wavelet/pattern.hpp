// The conservative sparsity pattern of G_ws (§3.5).
//
// Two fast-decaying basis vectors are assumed to interact negligibly exactly
// when their squares are well-separated under the cross-level rule of
// QuadTree; root-level leftover (slow-decaying) interactions are never
// dropped. Shared by the wavelet and low-rank sparsifiers — the fine-to-
// coarse sweep of §4.4 keeps the same "local" interactions.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "linalg/sparse.hpp"
#include "wavelet/transform_basis.hpp"

namespace subspar {

/// Accumulates measurements of entries of a symmetric matrix; entries
/// estimated from both directions (i response to j, j response to i) are
/// averaged, preserving symmetry of the assembled result. Measurements are
/// kept in record order and summed per entry in that order on build.
class SymmetricEntryAccumulator {
 public:
  explicit SymmetricEntryAccumulator(std::size_t n) : n_(n) {}

  void record(std::size_t i, std::size_t j, double v) {
    entries_.emplace_back(std::min(i, j) * n_ + std::max(i, j), v);
  }

  /// The averaged matrix; exact zeros are left out. Consumes the
  /// measurements.
  SparseMatrix build();

 private:
  std::size_t n_;
  std::vector<std::pair<std::size_t, double>> entries_;  // (upper-triangle key, value)
};

/// Records the entries G_w(r, c) = q_r' u_c the conservative pattern keeps
/// between the W columns `cols` of square s and the W columns at the same or
/// finer levels: those of every square in the subtree of a local square of
/// s (coarser-level entries come from symmetry). responses[i] is G q_{cols[i]}
/// over all contacts; only its entries on the contacts of local(s) are read.
/// Both sparsifiers' G_w fills record their W columns through it.
void record_local_entries(const TransformBasis& basis, const SquareId& s,
                          std::span<const std::size_t> cols, std::span<const Vector> responses,
                          SymmetricEntryAccumulator& acc);

/// All non-empty squares in the subtree rooted at `t` (including t), i.e.
/// its descendants at every finer level.
std::vector<SquareId> subtree_squares(const QuadTree& tree, const SquareId& t);

/// Keeps the `target_nnz` largest-magnitude entries of a symmetric sparse
/// matrix (threshold chosen by order statistics — the paper's binary search
/// reduced to a selection). Symmetric pairs are kept or dropped together.
SparseMatrix threshold_to_nnz(const SparseMatrix& a, std::size_t target_nnz);

}  // namespace subspar
