#include "linalg/ic0.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/check.hpp"
#include "util/parallel.hpp"

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

namespace {

// Groups rows into dependency levels: level(i) = 1 + max level over the
// off-diagonal entries of row i (entries of `m` strictly below/above the
// diagonal depending on the sweep direction), bucketed CSR-style. Rows are
// scanned in `forward` order so dependencies are already levelled.
void schedule_levels(const SparseMatrix& m, bool forward, std::vector<std::size_t>& ptr,
                     std::vector<std::size_t>& rows) {
  const std::size_t n = m.rows();
  std::vector<std::size_t> level(n, 0);
  std::size_t nlevels = 0;
  for (std::size_t t = 0; t < n; ++t) {
    const std::size_t i = forward ? t : n - 1 - t;
    std::size_t lv = 0;
    for (std::size_t e = m.row_begin(i); e < m.row_end(i); ++e) {
      const std::size_t j = m.col_index(e);
      if (j == i) continue;
      lv = std::max(lv, level[j] + 1);
    }
    level[i] = lv;
    nlevels = std::max(nlevels, lv + 1);
  }
  ptr.assign(n == 0 ? 1 : nlevels + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++ptr[level[i] + 1];
  for (std::size_t l = 0; l + 1 < ptr.size(); ++l) ptr[l + 1] += ptr[l];
  rows.resize(n);
  std::vector<std::size_t> fill(ptr.begin(), ptr.end() - 1);
  // Ascending row index within each level (i ascending fills buckets in
  // order), for a deterministic, cache-friendly schedule.
  for (std::size_t i = 0; i < n; ++i) rows[fill[level[i]]++] = i;
}

}  // namespace

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
  schedule_levels(f.l, /*forward=*/true, f.fwd_ptr, f.fwd_rows);
  schedule_levels(f.lt, /*forward=*/false, f.bwd_ptr, f.bwd_rows);
  return f;
}

namespace {

// (L L')^{-1} applied in place to the n x k block x.
void ic0_solve_in_place(const Ic0Factor& f, Matrix& x) {
  const std::size_t n = f.rows();
  const std::size_t k = x.cols();
  if (n == 0 || k == 0) return;
  // Forward: L y = b. Rows of one level are independent (their off-diagonal
  // columns all lie in earlier levels), so each level is one parallel_for;
  // a row's k columns are swept in its contiguous slice.
  for (std::size_t l = 0; l + 1 < f.fwd_ptr.size(); ++l) {
    const std::size_t r0 = f.fwd_ptr[l], r1 = f.fwd_ptr[l + 1];
    parallel_for(r1 - r0, [&](std::size_t t) {
      const std::size_t i = f.fwd_rows[r0 + t];
      double* xi = x.row_ptr(i);
      const std::size_t e0 = f.l.row_begin(i), e1 = f.l.row_end(i) - 1;  // diag last
      const double d = f.inv_diag[i];
      // Scalar reduction per column in ascending entry order: the same
      // operation sequence for every k, so batched columns are
      // bit-identical to 1-column solves.
      for (std::size_t j = 0; j < k; ++j) {
        double s = xi[j];
        for (std::size_t e = e0; e < e1; ++e)
          s -= f.l.value(e) * x.row_ptr(f.l.col_index(e))[j];
        xi[j] = s * d;
      }
    });
  }
  // Backward: L' x = y, gathered from the rows of L' (first entry of row i
  // of L' is the diagonal; the rest are columns > i, already solved).
  for (std::size_t l = 0; l + 1 < f.bwd_ptr.size(); ++l) {
    const std::size_t r0 = f.bwd_ptr[l], r1 = f.bwd_ptr[l + 1];
    parallel_for(r1 - r0, [&](std::size_t t) {
      const std::size_t i = f.bwd_rows[r0 + t];
      double* xi = x.row_ptr(i);
      const std::size_t e0 = f.lt.row_begin(i) + 1, e1 = f.lt.row_end(i);  // diag first
      const double d = f.inv_diag[i];
      for (std::size_t j = 0; j < k; ++j) {
        double s = xi[j];
        for (std::size_t e = e0; e < e1; ++e)
          s -= f.lt.value(e) * x.row_ptr(f.lt.col_index(e))[j];
        xi[j] = s * d;
      }
    });
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

Ic0Preconditioner::Ic0Preconditioner(const SparseMatrix& a, std::vector<std::size_t> perm)
    : perm_(std::move(perm)),
      factor_(perm_.empty() ? ic0_factor(a) : ic0_factor(a.permuted(perm_))) {}

void Ic0Preconditioner::apply_many(const Matrix& r, Matrix& z) const {
  const std::size_t n = factor_.rows();
  const std::size_t k = r.cols();
  SUBSPAR_REQUIRE(r.rows() == n && z.rows() == n && z.cols() == k);
  if (perm_.empty()) {
    z = r;
    ic0_solve_in_place(factor_, z);
    return;
  }
  // z = P' (L L')^{-1} P r: gather rows by the permutation, solve on the
  // reordered factor, scatter back.
  Matrix yp(n, k);
  for (std::size_t i = 0; i < n; ++i)
    std::copy(r.row_ptr(perm_[i]), r.row_ptr(perm_[i]) + k, yp.row_ptr(i));
  ic0_solve_in_place(factor_, yp);
  for (std::size_t i = 0; i < n; ++i)
    std::copy(yp.row_ptr(i), yp.row_ptr(i) + k, z.row_ptr(perm_[i]));
}

}  // namespace subspar
