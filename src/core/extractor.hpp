// The SparsifiedModel type and the SparsifyMethod choice. The pipeline
// that builds a model is in include/subspar/extraction.hpp
// (ExtractionRequest -> Extractor -> ExtractionResult).
#pragma once

#include <string>

#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "linalg/vector.hpp"

namespace subspar {

enum class SparsifyMethod {
  kWavelet,  ///< Chapter 3: geometric vanishing-moment basis
  kLowRank,  ///< Chapter 4: operator-adapted row-basis construction
};

/// A sparsified substrate coupling model: the orthogonal change of basis Q
/// and the sparse transformed conductance G_w, with the build-cost metadata
/// the paper's tables report.
class SparsifiedModel {
 public:
  /// Takes ownership of the factors; `solves` and `seconds` record what the
  /// extraction cost (black-box substrate solves and wall-clock time).
  SparsifiedModel(SparseMatrix q, SparseMatrix gw, long solves, double seconds);

  /// Contact currents from contact voltages through Q G_w Q' —
  /// O(nnz(Q) + nnz(G_w)) instead of the dense O(n^2).
  Vector apply(const Vector& contact_voltages) const;

  /// Batched application to the columns of an n x k voltage matrix, fanned
  /// out over the SUBSPAR_THREADS pool (columns are independent; results
  /// are bit-identical for any thread count).
  Matrix apply_many(const Matrix& contact_voltages) const;

  /// The orthogonal change-of-basis factor Q.
  const SparseMatrix& q() const { return q_; }
  /// The sparse transformed conductance G_w (thresholded if requested).
  const SparseMatrix& gw() const { return gw_; }
  /// Black-box substrate solves consumed by the extraction.
  long solves_used() const { return solves_; }
  /// Wall-clock seconds spent building the model.
  double build_seconds() const { return seconds_; }

  /// Paper metrics.
  double gw_sparsity_factor() const { return gw_.sparsity_factor(); }
  double q_sparsity_factor() const { return q_.sparsity_factor(); }
  double solve_reduction_factor() const;

  /// One-line human-readable digest (sparsity factors, solves, seconds).
  std::string summary() const;

 private:
  SparseMatrix q_, gw_;
  long solves_;
  double seconds_;
};

}  // namespace subspar
