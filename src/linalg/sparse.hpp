// Compressed sparse row (CSR) matrices.
//
// Sparse matrices appear in three roles: the 7-point finite-difference
// Laplacian of §2.2, the change-of-basis matrix Q of both sparsifiers, and
// the sparsified transformed conductance matrices G_ws / G_wt. The paper's
// "sparsity" metric n^2 / nnz is provided here.
//
// Column indices within each row are always sorted ascending (the builder
// sorts, every derived matrix preserves the invariant), so row iteration is
// ordered and the batched kernels accumulate in a fixed order — the basis
// of the bit-identical-for-any-SUBSPAR_THREADS contract of apply_many /
// apply_t_many.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace subspar {

/// Triplet accumulator; duplicate (row, col) entries are summed on build.
class SparseBuilder {
 public:
  SparseBuilder(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {}
  void add(std::size_t r, std::size_t c, double v);
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

 private:
  friend class SparseMatrix;
  std::size_t rows_, cols_;
  std::vector<std::size_t> r_, c_;
  std::vector<double> v_;
};

class SparseMatrix {
 public:
  SparseMatrix() = default;
  explicit SparseMatrix(const SparseBuilder& b, double drop_tol = 0.0);

  /// Dense-to-sparse conversion keeping |a(i,j)| > drop_tol. Empty inputs
  /// (zero rows or columns) and inputs whose every entry is dropped are
  /// valid and produce a zero-nnz matrix.
  static SparseMatrix from_dense(const Matrix& a, double drop_tol = 0.0);

  /// Adopts CSR arrays as they are: `rowptr` holds rows + 1 offsets from 0
  /// to nnz, and each row's column indices ascend strictly below `cols`.
  static SparseMatrix from_csr(std::size_t rows, std::size_t cols, std::vector<std::size_t> rowptr,
                               std::vector<std::size_t> colidx, std::vector<double> val);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return val_.size(); }
  /// Paper metric: total entries / nonzeros ("sparsity of the matrix").
  /// Defined as 0 for empty and zero-nnz matrices (never divides by zero).
  double sparsity_factor() const;

  Vector apply(const Vector& x) const;    ///< y = A x
  Vector apply_t(const Vector& x) const;  ///< y = A' x

  /// Y = A X for k dense right-hand sides (the columns of X), written into
  /// the caller's y: one CSR traversal feeds all k columns (row-major X
  /// keeps the inner loop contiguous). y must already be rows() x k and
  /// must not be x (otherwise std::invalid_argument); every entry is
  /// overwritten. Row-partitioned over the util/parallel pool in fixed-size
  /// chunks; each output row is produced by exactly one task with ascending
  /// column-index accumulation, so the result is bit-identical to k apply()
  /// calls for ANY SUBSPAR_THREADS.
  void apply_many(const Matrix& x, Matrix& y) const;
  /// Returning form of apply_many.
  Matrix apply_many(const Matrix& x) const;
  /// Y = A' X. Parallel over fixed-width column chunks of X (each task
  /// scatters into its own output columns, scanning rows in ascending
  /// order), bit-identical to k apply_t() calls for any thread count.
  Matrix apply_t_many(const Matrix& x) const;

  Matrix to_dense() const;
  SparseMatrix transposed() const;

  /// Row access for iteration: [col_index(k), value(k)) for k in
  /// [row_begin(i), row_end(i)).
  std::size_t row_begin(std::size_t i) const { return rowptr_[i]; }
  std::size_t row_end(std::size_t i) const { return rowptr_[i + 1]; }
  std::size_t col_index(std::size_t k) const { return colidx_[k]; }
  double value(std::size_t k) const { return val_[k]; }

  /// (row, col) coordinates of all nonzeros, for spy plots.
  std::vector<std::pair<std::size_t, std::size_t>> coordinates() const;

 private:
  friend SparseMatrix ic0(const SparseMatrix&);
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<std::size_t> rowptr_{0};
  std::vector<std::size_t> colidx_;
  std::vector<double> val_;
};

}  // namespace subspar
