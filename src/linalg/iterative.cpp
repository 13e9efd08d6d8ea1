#include "linalg/iterative.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/eig_sym.hpp"
#include "linalg/matrix.hpp"
#include "util/cancel.hpp"
#include "util/check.hpp"

namespace subspar {
namespace {

// Solve the small symmetric k x k system T Y = S of the block recurrences:
// Cholesky on the SPD fast path, spectral pseudo-inverse when the block has
// gone (near-)rank-deficient — e.g. a column converged, making its search
// direction numerically dependent on the others.
Matrix solve_block_gram(const Matrix& t, const Matrix& s) {
  Matrix tsym = t;
  for (std::size_t i = 0; i < t.rows(); ++i)
    for (std::size_t j = 0; j < i; ++j)
      tsym(i, j) = tsym(j, i) = 0.5 * (t(i, j) + t(j, i));
  try {
    return Cholesky(tsym).solve(s);
  } catch (const std::invalid_argument&) {
    const EigSym eig = eig_sym(tsym);
    double lmax = 0.0;
    for (std::size_t i = 0; i < eig.values.size(); ++i)
      lmax = std::max(lmax, std::abs(eig.values[i]));
    const double cut = lmax * 1e-13;
    Matrix vts = matmul_tn(eig.vectors, s);
    for (std::size_t i = 0; i < vts.rows(); ++i) {
      const double lam = eig.values[i];
      const double inv = std::abs(lam) > cut ? 1.0 / lam : 0.0;
      for (std::size_t j = 0; j < vts.cols(); ++j) vts(i, j) *= inv;
    }
    return matmul(eig.vectors, vts);
  }
}

}  // namespace

Vector Preconditioner::apply(const Vector& r) const {
  Matrix rm(r.size(), 1);
  rm.set_col(0, r);
  Matrix zm(r.size(), 1);
  apply_many(rm, zm);
  return zm.col(0);
}

Vector pcg(const LinearOp& a, const Vector& b, const IterOptions& opt, IterStats* stats,
           const LinearOp& precond) {
  const std::size_t n = b.size();
  Vector x(n);
  Vector r = b;  // x0 = 0
  const double bnorm = norm2(b);
  IterStats local;
  if (bnorm == 0.0) {
    local.converged = true;
    if (stats) *stats = local;
    return x;
  }
  Vector z = precond ? precond(r) : r;
  Vector p = z;
  double rz = dot(r, z);
  for (std::size_t it = 0; it < opt.max_iterations; ++it) {
    const Vector ap = a(p);
    const double pap = dot(p, ap);
    SUBSPAR_ENSURE(pap > 0.0);  // operator (or preconditioner) not SPD otherwise
    const double alpha = rz / pap;
    x.axpy(alpha, p);
    r.axpy(-alpha, ap);
    local.iterations = it + 1;
    const double rnorm = norm2(r);
    if (rnorm <= opt.rel_tol * bnorm) {
      local.converged = true;
      local.relative_residual = rnorm / bnorm;
      if (stats) *stats = local;
      return x;
    }
    z = precond ? precond(r) : r;
    const double rz_next = dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  local.relative_residual = norm2(r) / bnorm;
  if (stats) *stats = local;
  return x;
}

namespace {

// Per-column sums of squares in one row-major pass; each column still sums
// in ascending row order, so the result equals a column-at-a-time loop bit
// for bit.
std::vector<double> column_sum_squares(const Matrix& m) {
  std::vector<double> ss(m.cols(), 0.0);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const double* row = m.row_ptr(i);
    for (std::size_t j = 0; j < m.cols(); ++j) ss[j] += row[j] * row[j];
  }
  return ss;
}

}  // namespace

Matrix pcg_block(const LinearOpMany& a, const Matrix& b, const IterOptions& opt,
                 BlockIterStats* stats, const Preconditioner* precond,
                 PcgBlockScratch* scratch) {
  const std::size_t n = b.rows();
  const std::size_t k = b.cols();
  Matrix x(n, k);
  BlockIterStats local;

  // Zero columns solve to zero; drop them so the Gram systems stay SPD.
  std::vector<double> bnorm_all = column_sum_squares(b);
  std::vector<std::size_t> active;  // original column index of each live slot
  for (std::size_t j = 0; j < k; ++j) {
    bnorm_all[j] = std::sqrt(bnorm_all[j]);
    if (bnorm_all[j] > 0.0) active.push_back(j);
  }
  if (active.empty()) {
    local.converged = true;
    if (stats) *stats = local;
    return x;
  }
  std::vector<double> bnorm(active.size());
  for (std::size_t j = 0; j < active.size(); ++j) bnorm[j] = bnorm_all[active[j]];

  // The working blocks: the caller's scratch, or this call's own. Each is
  // re-shaped within its capacity and fully written before it is read.
  PcgBlockScratch own;
  PcgBlockScratch& w = scratch ? *scratch : own;
  Matrix &xa = w.x, &r = w.r, &z = w.z, &p = w.p, &q = w.q;
  xa.reshape(n, active.size());
  std::fill(xa.row_ptr(0), xa.row_ptr(0) + n * active.size(), 0.0);
  r.reshape(n, active.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double* src = b.row_ptr(i);
    double* dst = r.row_ptr(i);
    for (std::size_t j = 0; j < active.size(); ++j) dst[j] = src[active[j]];
  }
  // z = M^{-1} r, re-shaped only when columns deflate; the direction
  // update reuses it.
  const auto precondition = [&] {
    if (!precond) {
      z = r;
      return;
    }
    z.reshape(n, r.cols());
    precond->apply_many(r, z);
  };
  precondition();
  p = z;
  Matrix s = matmul_tn(z, r);  // live x live Gram of the recurrence
  // Stagnation watchdog: if the worst residual has not halved within a
  // window, the search directions have degenerated — recompute the true
  // residual and restart the recurrence from the current iterate.
  constexpr std::size_t kStallWindow = 50;
  double stall_ref = 0.0;
  std::size_t stall_it = 0;
  for (std::size_t it = 0; it < opt.max_iterations; ++it) {
    // Cooperative cancellation/deadline checkpoint: a long solve on a large
    // grid spends essentially all its time in this loop, so per-iteration
    // granularity is what bounds a cancelled job's latency.
    cancellation_point("pcg_block");
    q.reshape(n, p.cols());
    a(p, q);
    const Matrix t = matmul_tn(p, q);
    const Matrix alpha = solve_block_gram(t, s);
    matmul_add(xa, p, alpha, 1.0);
    matmul_add(r, q, alpha, -1.0);
    local.iterations = it + 1;

    // Per-column residuals; deflate converged columns out of the block so
    // the Gram systems stay well-conditioned for the stragglers.
    const std::size_t ka = active.size();
    const std::vector<double> rs = column_sum_squares(r);
    std::vector<std::size_t> keep, done;
    double worst = 0.0;
    for (std::size_t j = 0; j < ka; ++j) {
      const double rel = std::sqrt(rs[j]) / bnorm[j];
      if (rel <= opt.rel_tol) {
        done.push_back(j);
      } else {
        keep.push_back(j);
        worst = std::max(worst, rel);
      }
    }
    local.max_relative_residual = worst;
    if (keep.empty()) {
      local.converged = true;
      break;  // the copy after the loop delivers every column
    }
    const bool deflated = keep.size() < ka;
    if (deflated) {
      // One row pass delivers the converged columns and compacts xa and r
      // in place: row i's kept entries move to slots [i kn, i kn + kn),
      // which never pass its old slots [i ka, i ka + ka), so every entry is
      // read before anything overwrites it.
      const std::size_t kn = keep.size();
      double* const xd = xa.row_ptr(0);
      double* const rd = r.row_ptr(0);
      for (std::size_t i = 0; i < n; ++i) {
        const double* xo = xd + i * ka;
        double* const xrow = x.row_ptr(i);
        for (const std::size_t j : done) xrow[active[j]] = xo[j];
        for (std::size_t j = 0; j < kn; ++j) xd[i * kn + j] = xo[keep[j]];
        const double* ro = rd + i * ka;
        for (std::size_t j = 0; j < kn; ++j) rd[i * kn + j] = ro[keep[j]];
      }
      xa.reshape(n, kn);
      r.reshape(n, kn);
      std::vector<std::size_t> next_active(kn);
      std::vector<double> next_bnorm(kn);
      for (std::size_t j = 0; j < kn; ++j) {
        next_active[j] = active[keep[j]];
        next_bnorm[j] = bnorm[keep[j]];
      }
      active = std::move(next_active);
      bnorm = std::move(next_bnorm);
      // p is not compacted: every post-deflation path below restarts the
      // recurrence with p = z.
    }

    if (worst <= 0.5 * stall_ref || stall_ref == 0.0) {
      stall_ref = worst;
      stall_it = it;
    }
    if (it - stall_it >= kStallWindow) {
      // True-residual restart: one extra operator apply, only on stall.
      a(xa, r);
      r *= -1.0;
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < active.size(); ++j) r(i, j) += b(i, active[j]);
      precondition();
      p = z;
      s = matmul_tn(z, r);
      stall_ref = worst;
      stall_it = it;
      continue;
    }

    precondition();
    const Matrix s_next = matmul_tn(z, r);
    if (deflated) {
      // Fresh directions for the surviving columns (their cross terms with
      // the deflated ones are gone); CG re-accelerates from here.
      p = z;
      s = s_next;
      continue;
    }
    // p <- z + p beta, built in z's block; the old p's block becomes the
    // next preconditioner output.
    const Matrix beta = solve_block_gram(s, s_next);
    matmul_add(z, p, beta, 1.0);
    std::swap(p, z);
    s = s_next;
  }

  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < active.size(); ++j) x(i, active[j]) = xa(i, j);
  if (stats) *stats = local;
  return x;
}

Vector gmres(const LinearOp& a, const Vector& b, std::size_t restart, const IterOptions& opt,
             IterStats* stats) {
  SUBSPAR_REQUIRE(restart >= 1);
  const std::size_t n = b.size();
  Vector x(n);
  const double bnorm = norm2(b);
  IterStats local;
  if (bnorm == 0.0) {
    local.converged = true;
    if (stats) *stats = local;
    return x;
  }
  std::size_t total_iters = 0;
  while (total_iters < opt.max_iterations) {
    Vector r = b - a(x);
    double beta = norm2(r);
    if (beta <= opt.rel_tol * bnorm) {
      local.converged = true;
      break;
    }
    const std::size_t m = restart;
    std::vector<Vector> v;
    v.reserve(m + 1);
    v.push_back((1.0 / beta) * r);
    Matrix h(m + 1, m);                 // Hessenberg
    std::vector<double> cs(m), sn(m);   // Givens rotations
    Vector g(m + 1);
    g[0] = beta;
    std::size_t k = 0;
    for (; k < m && total_iters < opt.max_iterations; ++k, ++total_iters) {
      Vector w = a(v[k]);
      // Modified Gram-Schmidt.
      for (std::size_t i = 0; i <= k; ++i) {
        h(i, k) = dot(w, v[i]);
        w.axpy(-h(i, k), v[i]);
      }
      h(k + 1, k) = norm2(w);
      if (h(k + 1, k) > 0.0) v.push_back((1.0 / h(k + 1, k)) * w);
      // Apply accumulated rotations, then generate a new one.
      for (std::size_t i = 0; i < k; ++i) {
        const double t = cs[i] * h(i, k) + sn[i] * h(i + 1, k);
        h(i + 1, k) = -sn[i] * h(i, k) + cs[i] * h(i + 1, k);
        h(i, k) = t;
      }
      const double denom = std::hypot(h(k, k), h(k + 1, k));
      cs[k] = denom == 0.0 ? 1.0 : h(k, k) / denom;
      sn[k] = denom == 0.0 ? 0.0 : h(k + 1, k) / denom;
      h(k, k) = denom;
      h(k + 1, k) = 0.0;
      g[k + 1] = -sn[k] * g[k];
      g[k] = cs[k] * g[k];
      if (std::abs(g[k + 1]) <= opt.rel_tol * bnorm) {
        ++k;
        break;
      }
      if (h(k, k) == 0.0) break;  // breakdown: x is already exact in span
    }
    // Solve the small triangular system and update x.
    Vector y(k);
    for (std::size_t ii = k; ii-- > 0;) {
      double s = g[ii];
      for (std::size_t j = ii + 1; j < k; ++j) s -= h(ii, j) * y[j];
      y[ii] = h(ii, ii) == 0.0 ? 0.0 : s / h(ii, ii);
    }
    for (std::size_t i = 0; i < k; ++i) x.axpy(y[i], v[i]);
    if (k < m) {  // converged (or breakdown) inside the cycle
      const Vector rr = b - a(x);
      local.relative_residual = norm2(rr) / bnorm;
      local.converged = local.relative_residual <= opt.rel_tol * 10.0;
      break;
    }
  }
  local.iterations = total_iters;
  if (local.relative_residual == 0.0) {
    const Vector rr = b - a(x);
    local.relative_residual = norm2(rr) / bnorm;
    local.converged = local.relative_residual <= opt.rel_tol * 10.0;
  }
  if (stats) *stats = local;
  return x;
}

}  // namespace subspar
