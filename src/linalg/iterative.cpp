#include "linalg/iterative.hpp"

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

void FunctionPreconditioner::apply_many(const Matrix& r, Matrix& z) const {
  SUBSPAR_REQUIRE(z.rows() == r.rows() && z.cols() == r.cols());
  Matrix y = fn_(r);
  SUBSPAR_REQUIRE(y.rows() == r.rows() && y.cols() == r.cols());
  z = std::move(y);
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

// Selects the `keep` columns of a matrix (column compaction after
// deflating converged block-CG columns).
Matrix select_cols(const Matrix& m, const std::vector<std::size_t>& keep) {
  Matrix out(m.rows(), keep.size());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const double* src = m.row_ptr(i);
    double* dst = out.row_ptr(i);
    for (std::size_t j = 0; j < keep.size(); ++j) dst[j] = src[keep[j]];
  }
  return out;
}

}  // namespace

Matrix pcg_block(const LinearOpMany& a, const Matrix& b, const IterOptions& opt,
                 BlockIterStats* stats, const Preconditioner* precond,
                 Precision precision) {
  const std::size_t n = b.rows();
  const std::size_t k = b.cols();
  Matrix x(n, k);
  BlockIterStats local;

  // The dense block-Krylov algebra through the requested GEMM engine. The
  // small Gram solves (solve_block_gram) stay fp64 in both modes.
  const bool mixed = precision == Precision::kMixed;
  const auto mm_tn = [mixed](const Matrix& u, const Matrix& v) {
    return mixed ? matmul_tn_mixed(u, v) : matmul_tn(u, v);
  };
  const auto mm_add = [mixed](Matrix& c, const Matrix& u, const Matrix& v, double alpha) {
    if (mixed)
      matmul_add_mixed(c, u, v, alpha);
    else
      matmul_add(c, u, v, alpha);
  };

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
  Matrix r = select_cols(b, active);

  Matrix xa(n, active.size());
  // z = M^{-1} r lands in one block kept for the whole call (re-shaped
  // only when columns deflate), and the direction update reuses it.
  Matrix z(n, active.size());
  const auto precondition = [&] {
    if (!precond) {
      z = r;
      return;
    }
    if (z.cols() != r.cols()) z = Matrix(n, r.cols());
    precond->apply_many(r, z);
  };
  precondition();
  Matrix p = z;
  Matrix s = mm_tn(z, r);  // live x live Gram of the recurrence
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
    const Matrix q = a(p);
    const Matrix t = mm_tn(p, q);
    const Matrix alpha = solve_block_gram(t, s);
    mm_add(xa, p, alpha, 1.0);
    mm_add(r, q, alpha, -1.0);
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
    for (std::size_t i = 0; i < n; ++i)
      for (const std::size_t j : done) x(i, active[j]) = xa(i, j);
    local.max_relative_residual = worst;
    if (keep.empty()) {
      local.converged = true;
      break;
    }
    const bool deflated = keep.size() < ka;
    if (deflated) {
      std::vector<std::size_t> next_active(keep.size());
      std::vector<double> next_bnorm(keep.size());
      for (std::size_t j = 0; j < keep.size(); ++j) {
        next_active[j] = active[keep[j]];
        next_bnorm[j] = bnorm[keep[j]];
      }
      active = std::move(next_active);
      bnorm = std::move(next_bnorm);
      xa = select_cols(xa, keep);
      r = select_cols(r, keep);
      // p is not compacted: every post-deflation path below restarts the
      // recurrence with p = z.
    }

    if (worst <= 0.5 * stall_ref || stall_ref == 0.0) {
      stall_ref = worst;
      stall_it = it;
    }
    if (it - stall_it >= kStallWindow) {
      // True-residual restart: one extra operator apply, only on stall.
      r = a(xa);
      r *= -1.0;
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < active.size(); ++j) r(i, j) += b(i, active[j]);
      precondition();
      p = z;
      s = mm_tn(z, r);
      stall_ref = worst;
      stall_it = it;
      continue;
    }

    precondition();
    const Matrix s_next = mm_tn(z, r);
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
    mm_add(z, p, beta, 1.0);
    std::swap(p, z);
    s = s_next;
  }

  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < active.size(); ++j) x(i, active[j]) = xa(i, j);
  if (stats) *stats = local;
  return x;
}

Matrix pcg_block_refined(const LinearOpMany& a_hi, const LinearOpMany& a_lo,
                         const Matrix& b, const IterOptions& opt, BlockIterStats* stats,
                         const Preconditioner* precond) {
  const std::size_t n = b.rows();
  const std::size_t k = b.cols();
  // Inner sweeps only need to contract the residual by ~kInnerTol per outer
  // round: fp32 operator entries carry ~6e-8 relative rounding, so pushing
  // an inner sweep much past 1e-4 buys nothing the fp64 correction doesn't
  // redo. Invariants of the loop: (1) x is only ever updated by ADDING a
  // correction solved against the current TRUE fp64 residual, so no inner
  // inaccuracy accumulates across rounds; (2) convergence is judged ONLY
  // against the fp64 operator, never the mirror — the exit bound is
  // therefore identical to pure-fp64 pcg_block's.
  constexpr double kInnerTol = 1e-4;
  constexpr std::size_t kMaxOuter = 8;
  BlockIterStats total;
  Matrix x(n, k);

  std::vector<double> bnorm = column_sum_squares(b);
  bool any = false;
  for (std::size_t j = 0; j < k; ++j) {
    bnorm[j] = std::sqrt(bnorm[j]);
    any = any || bnorm[j] > 0.0;
  }
  if (!any) {
    total.converged = true;
    if (stats) *stats = total;
    return x;
  }

  IterOptions inner = opt;
  inner.rel_tol = std::max(opt.rel_tol, kInnerTol);
  Matrix r = b;
  double prev_worst = 0.0;
  for (std::size_t outer = 0; outer < kMaxOuter; ++outer) {
    BlockIterStats is;
    const Matrix d = pcg_block(a_lo, r, inner, &is, precond, Precision::kMixed);
    total.iterations += is.iterations;
    for (std::size_t i = 0; i < n; ++i) {
      double* xrow = x.row_ptr(i);
      const double* drow = d.row_ptr(i);
      for (std::size_t j = 0; j < k; ++j) xrow[j] += drow[j];
    }
    // One fp64 operator apply per round: the true residual r = b - A x.
    r = a_hi(x);
    r *= -1.0;
    for (std::size_t i = 0; i < n; ++i) {
      double* rrow = r.row_ptr(i);
      const double* brow = b.row_ptr(i);
      for (std::size_t j = 0; j < k; ++j) rrow[j] += brow[j];
    }
    const std::vector<double> rs = column_sum_squares(r);
    double worst = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      if (bnorm[j] == 0.0) continue;
      worst = std::max(worst, std::sqrt(rs[j]) / bnorm[j]);
    }
    total.max_relative_residual = worst;
    if (worst <= opt.rel_tol) {
      total.converged = true;
      break;
    }
    // No meaningful contraction: the fp32 mirror's accuracy floor. Stop and
    // let the caller's fp64 fallback chain take over.
    if (outer > 0 && !(worst < 0.5 * prev_worst)) break;
    prev_worst = worst;
  }
  if (stats) *stats = total;
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
