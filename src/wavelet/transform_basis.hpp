// Shared container for multilevel orthogonal change-of-basis matrices.
//
// Both sparsifiers produce the same structure (§3.4 / §4.4): per square a
// block of "fast-decaying" basis vectors W (wavelet: vanishing moments;
// low-rank: T, orthogonal to the operator row basis) plus "slow-decaying"
// leftovers V pushed up the tree, with the leftovers of the coarsest
// processed level (`root_level`) entering Q directly. This class owns the
// per-square blocks, the global column ordering (coarsest first,
// quadrant-hierarchical within a level — the spy-plot ordering of §3.7.1)
// and the sparse orthogonal Q.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "geometry/quadtree.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"

namespace subspar {

/// Per-square slice of a multilevel basis.
struct SquareBasis {
  std::vector<std::size_t> contacts;  ///< row ordering of v/w (global contact ids)
  Matrix v;                           ///< slow-decaying ("pushed up") block, n_s x v_s
  Matrix w;                           ///< fast-decaying block, n_s x w_s
  Matrix v_moments;                   ///< wavelet only: moments of v about the square center
};

/// One column of Q.
struct BasisColumn {
  SquareId square;
  bool vanishing = true;  ///< false for the root-level leftover V columns
  std::size_t m = 0;      ///< column index within the square's W (or root V)
};

class TransformBasis {
 public:
  /// `squares` must contain every non-empty square for levels
  /// root_level..max_level and satisfy the telescoping dimension count
  /// (total W columns + root V columns == n).
  TransformBasis(const QuadTree& tree, std::map<SquareId, SquareBasis> squares, int root_level);

  const QuadTree& tree() const { return *tree_; }
  int root_level() const { return root_level_; }
  std::size_t n() const { return n_; }

  const std::vector<BasisColumn>& columns() const { return columns_; }
  const SquareBasis& square_basis(const SquareId& s) const;

  /// Column indices of the W block of a square (empty if none).
  const std::vector<std::size_t>& w_columns(const SquareId& s) const;
  /// Column indices of the root-level leftover V blocks (all root squares).
  const std::vector<std::size_t>& root_columns() const { return root_columns_; }

  /// The orthogonal n x n change-of-basis matrix (contacts x columns).
  const SparseMatrix& q() const { return q_; }

  /// Zero-padded column j as a dense contact vector.
  Vector column_vector(std::size_t j) const;

  /// Sparse dot of column j with a full contact-space vector (the
  /// projection q_j' u used throughout extraction).
  double column_dot(std::size_t j, const Vector& u) const;

 private:
  const QuadTree* tree_;
  int root_level_;
  std::size_t n_;
  std::map<SquareId, SquareBasis> squares_;
  std::vector<BasisColumn> columns_;
  std::map<SquareId, std::vector<std::size_t>> w_column_index_;
  std::vector<std::size_t> root_columns_;
  SparseMatrix q_;
  static const std::vector<std::size_t> kNoColumns;
};

}  // namespace subspar
