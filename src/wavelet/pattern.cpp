#include "wavelet/pattern.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace subspar {

SparseMatrix SymmetricEntryAccumulator::build() {
  // Stable by key, so each entry's measurements are summed in record order.
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<std::size_t, double>> upper;  // (key, mean), row-major
  std::vector<std::size_t> rowptr(n_ + 1, 0);
  for (std::size_t t = 0; t < entries_.size();) {
    const std::size_t key = entries_[t].first;
    double sum = 0.0;
    std::size_t e = t;
    for (; e < entries_.size() && entries_[e].first == key; ++e) sum += entries_[e].second;
    const double mean = sum / static_cast<double>(e - t);
    t = e;
    if (mean == 0.0) continue;
    upper.emplace_back(key, mean);
    ++rowptr[key / n_ + 1];
    if (key / n_ != key % n_) ++rowptr[key % n_ + 1];
  }
  std::vector<std::pair<std::size_t, double>>().swap(entries_);
  for (std::size_t i = 0; i < n_; ++i) rowptr[i + 1] += rowptr[i];

  // Scanning the upper triangle row by row hands each row its mirrored
  // entries (columns left of the diagonal) before its own, in column order.
  std::vector<std::size_t> next(rowptr.begin(), rowptr.end() - 1), colidx(rowptr[n_]);
  std::vector<double> val(rowptr[n_]);
  const auto put = [&](std::size_t i, std::size_t j, double v) {
    colidx[next[i]] = j;
    val[next[i]++] = v;
  };
  for (const auto& [key, v] : upper) {
    const std::size_t i = key / n_, j = key % n_;
    put(i, j, v);
    if (i != j) put(j, i, v);
  }
  return SparseMatrix::from_csr(n_, n_, std::move(rowptr), std::move(colidx), std::move(val));
}

void record_local_entries(const TransformBasis& basis, const SquareId& s,
                          std::span<const std::size_t> cols, std::span<const Vector> responses,
                          SymmetricEntryAccumulator& acc) {
  SUBSPAR_REQUIRE(cols.size() == responses.size());
  const QuadTree& tree = basis.tree();
  for (const SquareId& t : tree.local(s))
    for (const SquareId& sp : subtree_squares(tree, t))
      for (const std::size_t row : basis.w_columns(sp))
        for (std::size_t c = 0; c < cols.size(); ++c)
          acc.record(row, cols[c], basis.column_dot(row, responses[c]));
}

std::vector<SquareId> subtree_squares(const QuadTree& tree, const SquareId& t) {
  std::vector<SquareId> out;
  out.push_back(t);
  for (std::size_t k = 0; k < out.size(); ++k) {
    if (out[k].level >= tree.max_level()) continue;
    for (const SquareId& c : tree.children(out[k])) out.push_back(c);
  }
  return out;
}

SparseMatrix threshold_to_nnz(const SparseMatrix& a, std::size_t target_nnz) {
  if (a.nnz() <= target_nnz) return a;
  std::vector<double> mags;
  mags.reserve(a.nnz());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t k = a.row_begin(i); k < a.row_end(i); ++k)
      mags.push_back(std::abs(a.value(k)));
  std::nth_element(mags.begin(), mags.begin() + static_cast<std::ptrdiff_t>(target_nnz),
                   mags.end(), std::greater<double>());
  const double cut = mags[target_nnz];
  SparseBuilder b(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t k = a.row_begin(i); k < a.row_end(i); ++k)
      if (std::abs(a.value(k)) > cut) b.add(i, a.col_index(k), a.value(k));
  return SparseMatrix(b);
}

}  // namespace subspar
