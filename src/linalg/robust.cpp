#include "linalg/robust.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace subspar {
namespace {

Matrix gather_cols(const Matrix& b, const std::vector<std::size_t>& cols) {
  Matrix out(b.rows(), cols.size());
  for (std::size_t j = 0; j < cols.size(); ++j)
    for (std::size_t i = 0; i < b.rows(); ++i) out(i, j) = b(i, cols[j]);
  return out;
}

bool all_finite(const Matrix& m) {
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      if (!std::isfinite(m(i, j))) return false;
  return true;
}

}  // namespace

bool fault_corrupt(FaultSite site, Matrix& y) {
  if (y.rows() == 0 || y.cols() == 0) return false;
  if (!fault_fire(site)) return false;
  const std::uint64_t k = fault_fired(site);
  const std::uint64_t idx =
      fault_corrupt_index(site, k, static_cast<std::uint64_t>(y.rows() * y.cols()));
  y(static_cast<std::size_t>(idx) / y.cols(), static_cast<std::size_t>(idx) % y.cols()) =
      fault_corrupt_value(k);
  return true;
}

bool fault_corrupt(FaultSite site, Vector& y) {
  if (y.size() == 0) return false;
  if (!fault_fire(site)) return false;
  const std::uint64_t k = fault_fired(site);
  const std::uint64_t idx = fault_corrupt_index(site, k, static_cast<std::uint64_t>(y.size()));
  y[static_cast<std::size_t>(idx)] = fault_corrupt_value(k);
  return true;
}

Matrix robust_pcg_block(const LinearOpMany& a, const Matrix& b, const RobustSolveOptions& opt,
                        RobustSolveReport* report, const Preconditioner* precond,
                        const Preconditioner* tighter, const DirectSolveFn& direct,
                        PcgBlockScratch* scratch) {
  RobustSolveReport rep;
  BlockIterStats stats;
  Matrix x = pcg_block(a, b, opt.iter, &stats, precond, scratch);
  rep.iterations = stats.iterations;
  rep.worst_residual = stats.max_relative_residual;
  const bool corrupted = fault_corrupt(FaultSite::kSolverSolve, x);
  if (stats.converged && !corrupted && all_finite(x)) {
    if (report) *report = rep;
    return x;  // bit-identical to the plain pcg_block path
  }

  // Fallback chain. From here every candidate block is verified against the
  // TRUE residual (one extra batched apply per attempt) before acceptance.
  rep.clean = false;
  if (!stats.converged) ++rep.max_iteration_hits;
  const std::size_t n = b.rows(), k = b.cols();
  const double accept_tol = opt.iter.rel_tol * opt.accept_factor;
  Matrix out(n, k);
  std::vector<std::size_t> bad;

  // Verifies candidate columns `xs` for rhs columns `cols`; accepted columns
  // are written into `out`, the rest returned for the next stage.
  const auto verify_and_keep = [&](const Matrix& xs, const std::vector<std::size_t>& cols) {
    Matrix axs(n, xs.cols());
    a(xs, axs);
    std::vector<std::size_t> still;
    for (std::size_t j = 0; j < cols.size(); ++j) {
      bool finite = true;
      for (std::size_t i = 0; i < n && finite; ++i) finite = std::isfinite(xs(i, j));
      if (!finite) {
        ++rep.nonfinite_events;
        still.push_back(cols[j]);
        continue;
      }
      double bn = 0.0, rn = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double bv = b(i, cols[j]);
        const double d = bv - axs(i, j);
        bn += bv * bv;
        rn += d * d;
      }
      const double rel = bn > 0.0 ? std::sqrt(rn / bn) : (rn > 0.0 ? 1.0 : 0.0);
      if (std::isfinite(rel) && rel <= accept_tol) {
        for (std::size_t i = 0; i < n; ++i) out(i, cols[j]) = xs(i, j);
        rep.worst_residual = std::max(rep.worst_residual, rel);
      } else {
        still.push_back(cols[j]);
      }
    }
    return still;
  };

  {
    std::vector<std::size_t> all(k);
    for (std::size_t j = 0; j < k; ++j) all[j] = j;
    rep.worst_residual = 0.0;  // re-measured from verified residuals only
    bad = verify_and_keep(x, all);
  }

  for (std::size_t attempt = 0; attempt < opt.max_restarts && !bad.empty(); ++attempt) {
    const bool use_tighter = tighter != nullptr && attempt + 1 == opt.max_restarts;
    const Matrix bsub = gather_cols(b, bad);
    BlockIterStats rstats;
    Matrix xs =
        pcg_block(a, bsub, opt.iter, &rstats, use_tighter ? tighter : precond, scratch);
    rep.iterations += rstats.iterations;
    ++rep.restarts;
    if (use_tighter) ++rep.tighter_restarts;
    if (!rstats.converged) ++rep.max_iteration_hits;
    (void)fault_corrupt(FaultSite::kSolverSolve, xs);
    bad = verify_and_keep(xs, bad);
  }

  if (!bad.empty() && direct) {
    const std::size_t before = bad.size();
    try {
      const Matrix bsub = gather_cols(b, bad);
      const Matrix xs = direct(bsub);
      bad = verify_and_keep(xs, bad);
    } catch (const std::exception&) {
      // A failed factorization (e.g. loss of positive definiteness) leaves
      // the columns unrecovered; the throw below reports them.
    }
    rep.direct_columns += before - bad.size();
  }

  if (report) *report = rep;  // populated even on the throw path below
  if (!bad.empty()) {
    char msg[192];
    std::snprintf(msg, sizeof msg,
                  "robust_pcg_block: %zu of %zu column(s) unrecovered after %zu restart(s) "
                  "and direct fallback (accept tol %.3e)",
                  bad.size(), k, rep.restarts, accept_tol);
    throw SolverConvergenceError(msg);
  }
  return out;
}

}  // namespace subspar
