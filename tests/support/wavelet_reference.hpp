// The wavelet sparsifier's test references (§3.5): the conservative
// sparsity pattern of G_ws as a predicate and a mask, the dense congruence
// Q' G Q, and the n-solve reference extraction that the combine-solves path
// is validated against.
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "substrate/solver.hpp"
#include "wavelet/extract.hpp"
#include "wavelet/transform_basis.hpp"

namespace subspar {

/// Two fast-decaying basis vectors are assumed to interact negligibly
/// exactly when their squares are well-separated under the cross-level rule
/// of QuadTree; root-level leftover (slow-decaying) interactions are never
/// dropped. The fine-to-coarse sweep of §4.4 keeps the same "local"
/// interactions.
class WaveletPattern {
 public:
  explicit WaveletPattern(const TransformBasis& basis) : basis_(&basis) {}

  /// True if entry (i, j) of G_w is kept under the conservative assumption.
  bool allowed(std::size_t i, std::size_t j) const;

  /// Masks a dense transformed matrix to the allowed pattern.
  SparseMatrix mask(const Matrix& gw) const;

 private:
  const TransformBasis* basis_;
};

/// Q' G Q for a dense G using the sparse Q.
Matrix transform_congruence(const SparseMatrix& q, const Matrix& g);

/// Dense extraction (n solves), then transform and mask.
WaveletExtraction wavelet_extract_reference(const SubstrateSolver& solver,
                                            const TransformBasis& basis);

}  // namespace subspar
