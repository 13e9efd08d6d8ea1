#include "linalg/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/backend.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace subspar {
namespace {
/// Rows per SpMM task: fine-grained enough to balance irregular rows, and a
/// fixed constant so the row -> task mapping (and hence every accumulation)
/// is independent of the pool size.
constexpr std::size_t kSpmmRowChunk = 64;
/// Output columns per transpose-SpMM task (each task owns a column slice).
constexpr std::size_t kSpmmColChunk = 8;
}  // namespace

void SparseBuilder::add(std::size_t r, std::size_t c, double v) {
  SUBSPAR_REQUIRE(r < rows_ && c < cols_);
  r_.push_back(r);
  c_.push_back(c);
  v_.push_back(v);
}

SparseMatrix::SparseMatrix(const SparseBuilder& b, double drop_tol)
    : rows_(b.rows_), cols_(b.cols_) {
  // Counting sort by row, then sort each row's segment by column and merge
  // duplicates.
  std::vector<std::size_t> order(b.r_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return b.r_[x] != b.r_[y] ? b.r_[x] < b.r_[y] : b.c_[x] < b.c_[y];
  });
  rowptr_.assign(rows_ + 1, 0);
  for (std::size_t t = 0; t < order.size(); ++t) {
    const std::size_t k = order[t];
    const std::size_t r = b.r_[k], c = b.c_[k];
    double v = b.v_[k];
    while (t + 1 < order.size() && b.r_[order[t + 1]] == r && b.c_[order[t + 1]] == c) {
      ++t;
      v += b.v_[order[t]];
    }
    if (std::abs(v) <= drop_tol) continue;
    colidx_.push_back(c);
    val_.push_back(v);
    ++rowptr_[r + 1];
  }
  for (std::size_t i = 0; i < rows_; ++i) rowptr_[i + 1] += rowptr_[i];
}

SparseMatrix SparseMatrix::from_csr(std::size_t rows, std::size_t cols,
                                    std::vector<std::size_t> rowptr,
                                    std::vector<std::size_t> colidx, std::vector<double> val) {
  SUBSPAR_REQUIRE(rowptr.size() == rows + 1 && rowptr.front() == 0 &&
                  rowptr.back() == colidx.size() && colidx.size() == val.size());
  for (std::size_t i = 0; i < rows; ++i) {
    SUBSPAR_REQUIRE(rowptr[i] <= rowptr[i + 1]);
    for (std::size_t k = rowptr[i]; k < rowptr[i + 1]; ++k)
      SUBSPAR_REQUIRE(colidx[k] < cols && (k == rowptr[i] || colidx[k - 1] < colidx[k]));
  }
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.rowptr_ = std::move(rowptr);
  m.colidx_ = std::move(colidx);
  m.val_ = std::move(val);
  return m;
}

SparseMatrix SparseMatrix::from_dense(const Matrix& a, double drop_tol) {
  SparseBuilder b(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      if (std::abs(a(i, j)) > drop_tol) b.add(i, j, a(i, j));
  return SparseMatrix(b);
}

double SparseMatrix::sparsity_factor() const {
  // Zero-nnz (including 0 x n / n x 0) matrices have no meaningful sparsity
  // factor; return 0 rather than dividing by zero.
  if (rows_ == 0 || cols_ == 0 || nnz() == 0) return 0.0;
  return static_cast<double>(rows_) * static_cast<double>(cols_) / static_cast<double>(nnz());
}

Vector SparseMatrix::apply(const Vector& x) const {
  SUBSPAR_REQUIRE(x.size() == cols_);
  Vector y(rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    double s = 0.0;
    for (std::size_t k = rowptr_[i]; k < rowptr_[i + 1]; ++k) s += val_[k] * x[colidx_[k]];
    y[i] = s;
  }
  return y;
}

Vector SparseMatrix::apply_t(const Vector& x) const {
  SUBSPAR_REQUIRE(x.size() == rows_);
  Vector y(cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (std::size_t k = rowptr_[i]; k < rowptr_[i + 1]; ++k) y[colidx_[k]] += val_[k] * xi;
  }
  return y;
}

void SparseMatrix::apply_many(const Matrix& x, Matrix& y) const {
  const std::size_t k = x.cols();
  SUBSPAR_REQUIRE(x.rows() == cols_ && y.rows() == rows_ && y.cols() == k && &y != &x);
  if (k == 0 || rows_ == 0) return;
  const KernelOps& ops = kernel_ops();
  const std::size_t chunks = (rows_ + kSpmmRowChunk - 1) / kSpmmRowChunk;
  parallel_for(chunks, [&](std::size_t t) {
    const std::size_t i0 = t * kSpmmRowChunk;
    const std::size_t i1 = std::min(rows_, i0 + kSpmmRowChunk);
    for (std::size_t i = i0; i < i1; ++i) {
      double* yrow = y.row_ptr(i);
      const std::size_t e0 = rowptr_[i], e1 = rowptr_[i + 1];
      // Reduction per (row, column) in ascending entry order — under the
      // scalar backend the same operation sequence (incl. FMA contraction)
      // as apply(), so the batched result is bit-identical to k single
      // applies; SIMD backends vectorize across columns, keeping the
      // per-element entry order. The row's entries stay in L1 across the k
      // columns: one effective traversal of A feeds the whole block.
      ops.spmm_row_f64(val_.data() + e0, colidx_.data() + e0, e1 - e0, x.row_ptr(0),
                       k, yrow, k);
    }
  });
}

Matrix SparseMatrix::apply_many(const Matrix& x) const {
  Matrix y(rows_, x.cols());
  apply_many(x, y);
  return y;
}

Matrix SparseMatrix::apply_t_many(const Matrix& x) const {
  SUBSPAR_REQUIRE(x.rows() == rows_);
  const std::size_t k = x.cols();
  Matrix y(cols_, k);
  if (k == 0 || cols_ == 0) return y;
  const KernelOps& ops = kernel_ops();
  const std::size_t chunks = (k + kSpmmColChunk - 1) / kSpmmColChunk;
  parallel_for(chunks, [&](std::size_t t) {
    const std::size_t j0 = t * kSpmmColChunk;
    const std::size_t j1 = std::min(k, j0 + kSpmmColChunk);
    for (std::size_t i = 0; i < rows_; ++i) {
      // The scalar backend's kernel keeps the per-element zero skip that
      // mirrors apply_t()'s row skip exactly (bit-identical even through
      // signed-zero accumulation); SIMD backends add the v * 0.0 terms,
      // which can only flip a signed zero.
      const std::size_t e0 = rowptr_[i], e1 = rowptr_[i + 1];
      ops.spmm_t_row_f64(val_.data() + e0, colidx_.data() + e0, e1 - e0, x.row_ptr(i),
                         j0, j1, y.row_ptr(0), k);
    }
  });
  return y;
}

Matrix SparseMatrix::to_dense() const {
  Matrix a(rows_, cols_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t k = rowptr_[i]; k < rowptr_[i + 1]; ++k) a(i, colidx_[k]) = val_[k];
  return a;
}

SparseMatrix SparseMatrix::transposed() const {
  SparseBuilder b(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t k = rowptr_[i]; k < rowptr_[i + 1]; ++k) b.add(colidx_[k], i, val_[k]);
  return SparseMatrix(b);
}

std::vector<std::pair<std::size_t, std::size_t>> SparseMatrix::coordinates() const {
  std::vector<std::pair<std::size_t, std::size_t>> coords;
  coords.reserve(nnz());
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t k = rowptr_[i]; k < rowptr_[i + 1]; ++k) coords.emplace_back(i, colidx_[k]);
  return coords;
}

}  // namespace subspar
