#include "wavelet_reference.hpp"

#include "util/check.hpp"

namespace subspar {

bool WaveletPattern::allowed(std::size_t i, std::size_t j) const {
  const auto& cols = basis_->columns();
  SUBSPAR_REQUIRE(i < cols.size() && j < cols.size());
  const BasisColumn& a = cols[i];
  const BasisColumn& b = cols[j];
  if (!a.vanishing || !b.vanishing) return true;  // root V rows/cols all kept
  return !basis_->tree().well_separated(a.square, b.square);
}

SparseMatrix WaveletPattern::mask(const Matrix& gw) const {
  const std::size_t n = basis_->n();
  SUBSPAR_REQUIRE(gw.rows() == n && gw.cols() == n);
  SparseBuilder b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (gw(i, j) != 0.0 && allowed(i, j)) b.add(i, j, gw(i, j));
  return SparseMatrix(b);
}

Matrix transform_congruence(const SparseMatrix& q, const Matrix& g) {
  const std::size_t n = g.rows();
  SUBSPAR_REQUIRE(q.rows() == n && q.cols() == n && g.cols() == n);
  // GQ column by column (Q columns are sparse), then Q' (GQ).
  Matrix gq(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    Vector acc(n);
    Vector ej(n);
    ej[j] = 1.0;
    const Vector qj = q.apply(ej);  // dense column of Q
    for (std::size_t k = 0; k < n; ++k) {
      if (qj[k] == 0.0) continue;
      const double w = qj[k];
      for (std::size_t i = 0; i < n; ++i) acc[i] += w * g(i, k);
    }
    gq.set_col(j, acc);
  }
  Matrix gw(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    const Vector col = gq.col(j);
    const Vector qtcol = q.apply_t(col);
    gw.set_col(j, qtcol);
  }
  return gw;
}

WaveletExtraction wavelet_extract_reference(const SubstrateSolver& solver,
                                            const TransformBasis& basis) {
  const long before = solver.solve_count();
  const Matrix g = extract_dense(solver);
  const Matrix gw = transform_congruence(basis.q(), g);
  WaveletExtraction out;
  out.gws = WaveletPattern(basis).mask(gw);
  out.solves = solver.solve_count() - before;
  return out;
}

}  // namespace subspar
