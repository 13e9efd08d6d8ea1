#include "wavelet/transform_basis.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace subspar {

const std::vector<std::size_t> TransformBasis::kNoColumns{};

namespace {

// Quadrant-hierarchical (Morton, y-major) key for the in-level square
// ordering of §3.7.1.
std::uint64_t morton_key(const SquareId& s) {
  std::uint64_t key = 0;
  for (int bit = 0; bit < 16; ++bit) {
    key |= static_cast<std::uint64_t>((s.iy >> bit) & 1) << (2 * bit + 1);
    key |= static_cast<std::uint64_t>((s.ix >> bit) & 1) << (2 * bit);
  }
  return key;
}

std::vector<SquareId> morton_sorted(std::vector<SquareId> squares) {
  std::sort(squares.begin(), squares.end(),
            [](const SquareId& a, const SquareId& b) { return morton_key(a) < morton_key(b); });
  return squares;
}

}  // namespace

TransformBasis::TransformBasis(const QuadTree& tree, std::map<SquareId, SquareBasis> squares,
                               int root_level)
    : tree_(&tree),
      root_level_(root_level),
      n_(tree.layout().n_contacts()),
      squares_(std::move(squares)) {
  SUBSPAR_REQUIRE(root_level >= 0 && root_level <= tree.max_level());

  // Root-level leftovers first, then W blocks coarsest-to-finest.
  for (const SquareId& s : morton_sorted(tree.squares(root_level))) {
    const SquareBasis& sb = squares_.at(s);
    for (std::size_t m = 0; m < sb.v.cols(); ++m) {
      root_columns_.push_back(columns_.size());
      columns_.push_back(BasisColumn{s, /*vanishing=*/false, m});
    }
  }
  for (int lev = root_level; lev <= tree.max_level(); ++lev) {
    for (const SquareId& s : morton_sorted(tree.squares(lev))) {
      const SquareBasis& sb = squares_.at(s);
      auto& idx = w_column_index_[s];
      for (std::size_t m = 0; m < sb.w.cols(); ++m) {
        idx.push_back(columns_.size());
        columns_.push_back(BasisColumn{s, /*vanishing=*/true, m});
      }
    }
  }
  SUBSPAR_ENSURE(columns_.size() == n_);  // the multilevel split must be exhaustive

  SparseBuilder qb(n_, n_);
  for (std::size_t j = 0; j < columns_.size(); ++j) {
    const BasisColumn& col = columns_[j];
    const SquareBasis& sb = squares_.at(col.square);
    const Matrix& block = col.vanishing ? sb.w : sb.v;
    for (std::size_t i = 0; i < sb.contacts.size(); ++i) {
      const double val = block(i, col.m);
      if (val != 0.0) qb.add(sb.contacts[i], j, val);
    }
  }
  q_ = SparseMatrix(qb);
}

const SquareBasis& TransformBasis::square_basis(const SquareId& s) const {
  const auto it = squares_.find(s);
  SUBSPAR_REQUIRE(it != squares_.end());
  return it->second;
}

const std::vector<std::size_t>& TransformBasis::w_columns(const SquareId& s) const {
  const auto it = w_column_index_.find(s);
  return it == w_column_index_.end() ? kNoColumns : it->second;
}

Vector TransformBasis::column_vector(std::size_t j) const {
  SUBSPAR_REQUIRE(j < columns_.size());
  const BasisColumn& col = columns_[j];
  const SquareBasis& sb = square_basis(col.square);
  const Matrix& block = col.vanishing ? sb.w : sb.v;
  Vector out(n_);
  for (std::size_t i = 0; i < sb.contacts.size(); ++i) out[sb.contacts[i]] = block(i, col.m);
  return out;
}

double TransformBasis::column_dot(std::size_t j, const Vector& u) const {
  SUBSPAR_REQUIRE(j < columns_.size() && u.size() == n_);
  const BasisColumn& col = columns_[j];
  const SquareBasis& sb = square_basis(col.square);
  const Matrix& block = col.vanishing ? sb.w : sb.v;
  double s = 0.0;
  for (std::size_t i = 0; i < sb.contacts.size(); ++i) s += block(i, col.m) * u[sb.contacts[i]];
  return s;
}

}  // namespace subspar
