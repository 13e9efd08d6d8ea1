#include "linalg/ic0.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/check.hpp"

namespace subspar {

SparseMatrix ic0(const SparseMatrix& a) {
  SUBSPAR_REQUIRE(a.rows() == a.cols());
  const std::size_t n = a.rows();
  // Row-wise working storage for L: sorted (col, val) pairs, cols <= row.
  std::vector<std::vector<std::pair<std::size_t, double>>> l(n);

  for (std::size_t i = 0; i < n; ++i) {
    double diag = 0.0;
    for (std::size_t k = a.row_begin(i); k < a.row_end(i); ++k) {
      const std::size_t j = a.col_index(k);
      if (j > i) continue;
      const double aij = a.value(k);
      if (j == i) {
        diag = aij;
        continue;
      }
      // L(i,j) = (A(i,j) - sum_{t<j} L(i,t) L(j,t)) / L(j,j), restricted to
      // the pattern (sparse dot of rows i and j of L).
      double s = aij;
      std::size_t pi = 0, pj = 0;
      const auto& ri = l[i];
      const auto& rj = l[j];
      while (pi < ri.size() && pj < rj.size()) {
        if (ri[pi].first == rj[pj].first) {
          s -= ri[pi].second * rj[pj].second;
          ++pi;
          ++pj;
        } else if (ri[pi].first < rj[pj].first) {
          ++pi;
        } else {
          ++pj;
        }
      }
      SUBSPAR_ENSURE(!rj.empty() && rj.back().first == j);  // L(j,j) stored last
      l[i].emplace_back(j, s / rj.back().second);
    }
    double s = diag;
    for (const auto& [c, v] : l[i]) s -= v * v;
    // Breakdown repair: IC(0) can produce non-positive pivots for matrices
    // that are positive definite but not M-matrices; shift keeps the factor
    // usable as a preconditioner.
    if (s <= 0.0) s = std::max(1e-12, 1e-3 * std::abs(diag));
    l[i].emplace_back(i, std::sqrt(s));
  }

  SparseBuilder b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (const auto& [c, v] : l[i]) b.add(i, c, v);
  return SparseMatrix(b);
}

Vector ic0_solve(const SparseMatrix& la, const Vector& b) {
  const std::size_t n = la.rows();
  SUBSPAR_REQUIRE(b.size() == n && la.cols() == n);
  // Forward: L y = b (rows of L hold columns <= i, diagonal last).
  Vector y = b;
  for (std::size_t i = 0; i < n; ++i) {
    double s = y[i];
    double dii = 0.0;
    for (std::size_t k = la.row_begin(i); k < la.row_end(i); ++k) {
      const std::size_t j = la.col_index(k);
      if (j == i) {
        dii = la.value(k);
      } else {
        s -= la.value(k) * y[j];
      }
    }
    SUBSPAR_ENSURE(dii != 0.0);
    y[i] = s / dii;
  }
  // Backward: L' x = y, via column scatter from the rows of L.
  Vector x = y;
  for (std::size_t ii = n; ii-- > 0;) {
    double dii = 0.0;
    for (std::size_t k = la.row_begin(ii); k < la.row_end(ii); ++k)
      if (la.col_index(k) == ii) dii = la.value(k);
    x[ii] /= dii;
    const double xi = x[ii];
    for (std::size_t k = la.row_begin(ii); k < la.row_end(ii); ++k) {
      const std::size_t j = la.col_index(k);
      if (j != ii) x[j] -= la.value(k) * xi;
    }
  }
  return x;
}

Ic0Factor ic0_factor(const SparseMatrix& a) {
  Ic0Factor f;
  f.l = ic0(a);
  f.lt = f.l.transposed();
  const std::size_t n = f.l.rows();
  f.inv_diag.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    // Sorted columns: the diagonal is the last entry of row i of L.
    SUBSPAR_ENSURE(f.l.row_end(i) > f.l.row_begin(i));
    const std::size_t e = f.l.row_end(i) - 1;
    SUBSPAR_ENSURE(f.l.col_index(e) == i && f.l.value(e) != 0.0);
    f.inv_diag[i] = 1.0 / f.l.value(e);
  }
  return f;
}

namespace {

// (L L')^{-1} applied in place to the n x k block x. Each row's k columns
// are swept in its contiguous slice, one scalar reduction per column in
// ascending entry order: the same operation sequence for every k, so
// batched columns are bit-identical to 1-column solves.
void ic0_solve_in_place(const Ic0Factor& f, Matrix& x) {
  const std::size_t n = f.rows();
  const std::size_t k = x.cols();
  if (n == 0 || k == 0) return;
  // Forward: L y = b over ascending rows (off-diagonal columns of row i of
  // L are < i, already solved; the diagonal is the last entry).
  for (std::size_t i = 0; i < n; ++i) {
    double* xi = x.row_ptr(i);
    const std::size_t e0 = f.l.row_begin(i), e1 = f.l.row_end(i) - 1;
    const double d = f.inv_diag[i];
    for (std::size_t j = 0; j < k; ++j) {
      double s = xi[j];
      for (std::size_t e = e0; e < e1; ++e) s -= f.l.value(e) * x.row_ptr(f.l.col_index(e))[j];
      xi[j] = s * d;
    }
  }
  // Backward: L' x = y over descending rows, gathered from the rows of L'
  // (the diagonal is the first entry; the rest are columns > i, already
  // solved).
  for (std::size_t i = n; i-- > 0;) {
    double* xi = x.row_ptr(i);
    const std::size_t e0 = f.lt.row_begin(i) + 1, e1 = f.lt.row_end(i);
    const double d = f.inv_diag[i];
    for (std::size_t j = 0; j < k; ++j) {
      double s = xi[j];
      for (std::size_t e = e0; e < e1; ++e) s -= f.lt.value(e) * x.row_ptr(f.lt.col_index(e))[j];
      xi[j] = s * d;
    }
  }
}

}  // namespace

Matrix ic0_solve_many(const Ic0Factor& f, const Matrix& b) {
  SUBSPAR_REQUIRE(b.rows() == f.rows());
  Matrix x = b;
  ic0_solve_in_place(f, x);
  return x;
}

Vector ic0_solve(const Ic0Factor& f, const Vector& b) {
  Matrix bm(b.size(), 1);
  bm.set_col(0, b);
  return ic0_solve_many(f, bm).col(0);
}

Ic0Preconditioner::Ic0Preconditioner(const SparseMatrix& a) : factor_(ic0_factor(a)) {}

void Ic0Preconditioner::apply_many(const Matrix& r, Matrix& z) const {
  const std::size_t n = factor_.rows();
  SUBSPAR_REQUIRE(r.rows() == n && z.rows() == n && z.cols() == r.cols());
  z = r;
  ic0_solve_in_place(factor_, z);
}

}  // namespace subspar
