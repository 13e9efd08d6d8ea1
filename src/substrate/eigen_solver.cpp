#include "substrate/eigen_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/robust.hpp"
#include "transform/dct.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace subspar {
namespace {
constexpr double kPi = 3.14159265358979323846;

/// Contacts per block-Jacobi task: a fixed split, so the tasks do not
/// depend on the thread count (nor, since contacts are independent, do the
/// results).
constexpr std::size_t kContactsPerTask = 64;

/// Block-Jacobi over contacts (SurfaceSolverOptions::contact_block_precond).
/// A contact's panels are one contiguous row block of the residual, solved
/// straight into the same rows of z by that contact's Cholesky factor.
class ContactBlockPreconditioner final : public Preconditioner {
 public:
  ContactBlockPreconditioner(std::vector<std::size_t> contact_begin,
                             std::vector<Cholesky> factors)
      : begin_(std::move(contact_begin)), factors_(std::move(factors)) {}

  void apply_many(const Matrix& r, Matrix& z) const override {
    SUBSPAR_REQUIRE(z.rows() == r.rows() && z.cols() == r.cols() && &z != &r);
    const std::size_t n = factors_.size(), k = r.cols();
    parallel_for((n + kContactsPerTask - 1) / kContactsPerTask, [&](std::size_t t) {
      const std::size_t end = std::min(n, (t + 1) * kContactsPerTask);
      for (std::size_t c = t * kContactsPerTask; c < end; ++c)
        factors_[c].solve_block(r.row_ptr(begin_[c]), z.row_ptr(begin_[c]), k);
    });
  }

 private:
  std::vector<std::size_t> begin_;  // offsets of each contact's panel rows
  std::vector<Cholesky> factors_;
};

// Panel-averaging factor for mode m over M panels:
// mean over a panel of cos(m pi x / a) relative to its center value.
double sinc_factor(std::size_t m, std::size_t panels) {
  if (m == 0) return 1.0;
  const double u = kPi * static_cast<double>(m) / (2.0 * static_cast<double>(panels));
  return std::sin(u) / u;
}

}  // namespace

double kernel_block_entry(const Vector& kernel, std::size_t mx, std::size_t ny,
                          std::size_t cx, std::size_t cy, long dx, long dy) {
  SUBSPAR_REQUIRE(kernel.size() == mx * ny);
  const long kx = std::clamp(static_cast<long>(cx) + dx, 0L, static_cast<long>(mx) - 1);
  const long ky = std::clamp(static_cast<long>(cy) + dy, 0L, static_cast<long>(ny) - 1);
  return kernel[static_cast<std::size_t>(kx) + mx * static_cast<std::size_t>(ky)];
}

struct SurfaceSolver::Impl {
  Layout layout;
  SubstrateStack stack;
  SurfaceSolverOptions options;

  std::vector<double> lambda_tilde;       // (m, n) -> scaled eigenvalue, row-major m*N+n
  std::vector<std::size_t> panels;        // flattened contact-panel grid indices
  std::vector<std::size_t> contact_begin; // offsets into `panels`, size n+1
  std::vector<std::size_t> panel_rows;    // sorted grid rows (y) holding a contact panel
  std::vector<std::size_t> panel_cols;    // sorted grid columns (x) holding one
  std::unique_ptr<const Preconditioner> block_precond;  // null without contact_block_precond
  mutable std::unique_ptr<Cholesky> direct_factor;  // lazy dense fallback factor
  mutable long total_iterations = 0;
  mutable long stat_solves = 0;

  Impl(const Layout& l, const SubstrateStack& s, SurfaceSolverOptions o)
      : layout(l), stack(s), options(o) {}

  std::size_t grid_size() const { return layout.panels_x() * layout.panels_y(); }

  // Eigenvalue multiply on one already-transformed grid.
  void scale_modes(double* a) const {
    const std::size_t mx = layout.panels_x(), ny = layout.panels_y();
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < mx; ++x) a[y * mx + x] *= lambda_tilde[x * ny + y];
  }

  Vector apply_grid(const Vector& q) const {
    const std::size_t mx = layout.panels_x(), ny = layout.panels_y();
    std::vector<double> a(q.begin(), q.end());
    // Grid storage is x + mx * y; rows of length mx vary x, so the
    // row-transform runs over x (modes m) and the column transform over y.
    dct2_2d(a, ny, mx);
    scale_modes(a.data());
    dct3_2d(a, ny, mx);
    return Vector(std::move(a));
  }

  // Restricted operator into the caller's p x k block, one task per column
  // on the executing thread's panel grid: scatter, forward 2-D DCT,
  // eigenvalue scale, inverse 2-D DCT, gather into the column. A grid row
  // without a contact panel is zero, so its forward row transform would be
  // zero too and is skipped; a grid column without one is never gathered,
  // so its inverse column transform is skipped. Every transform that runs
  // is the per-line DctPlan call of dct2_2d / dct3_2d, columns in place at
  // stride mx, so each column keeps apply_grid's bits at any thread count.
  void apply_restricted_many(const Matrix& x, Matrix& out) const {
    const std::size_t mx = layout.panels_x(), ny = layout.panels_y();
    const std::size_t p = panels.size();
    SUBSPAR_REQUIRE(x.rows() == p && out.rows() == p && out.cols() == x.cols() && &out != &x);
    parallel_for(x.cols(), [&](std::size_t j) {
      thread_local std::vector<double> grid;
      grid.assign(mx * ny, 0.0);
      double* g = grid.data();
      const DctPlan& row_plan = dct_plan(mx);
      const DctPlan& col_plan = dct_plan(ny);
      for (std::size_t idx = 0; idx < p; ++idx) g[panels[idx]] = x(idx, j);
      for (const std::size_t y : panel_rows) row_plan.dct2(g + y * mx);
      for (std::size_t c = 0; c < mx; ++c) col_plan.dct2(g + c, mx);
      scale_modes(g);
      for (std::size_t y = 0; y < ny; ++y) row_plan.dct3(g + y * mx);
      for (const std::size_t c : panel_cols) col_plan.dct3(g + c, mx);
      for (std::size_t idx = 0; idx < p; ++idx) out(idx, j) = g[panels[idx]];
    });
  }

  // Dense direct fallback for the robust chain: materializes the restricted
  // panel operator once (p batched applies through the clean operator, no
  // fault instrumentation) and Cholesky-factors it; the factor is reused by
  // every later fallback.
  Matrix direct_solve(const Matrix& b) const {
    if (!direct_factor) {
      const std::size_t p = panels.size();
      Matrix a_cc(p, p);
      apply_restricted_many(Matrix::identity(p), a_cc);
      // The DCT round trip is symmetric only to rounding; Cholesky needs it
      // exact.
      for (std::size_t i = 0; i < p; ++i)
        for (std::size_t j = i + 1; j < p; ++j) {
          const double v = 0.5 * (a_cc(i, j) + a_cc(j, i));
          a_cc(i, j) = v;
          a_cc(j, i) = v;
        }
      direct_factor = std::make_unique<Cholesky>(a_cc);
    }
    return direct_factor->solve(b);
  }

  // Shared solve core: contact-voltage columns -> contact-current columns,
  // one blocked PCG per chunk of <= kMaxSolveBlock columns, each run through
  // the robust fallback chain (restarts, then the dense direct solve).
  Matrix solve_block(const Matrix& contact_voltages, SolverDiagnostics& diag) const {
    const std::size_t n = layout.n_contacts();
    const std::size_t k = contact_voltages.cols();
    Matrix currents(n, k);
    for (std::size_t j0 = 0; j0 < k; j0 += kMaxSolveBlock) {
      const std::size_t kc = std::min(kMaxSolveBlock, k - j0);
      // Right-hand sides: each contact's panels sit at the contact voltage.
      Matrix v(panels.size(), kc);
      for (std::size_t j = 0; j < kc; ++j)
        for (std::size_t c = 0; c < n; ++c)
          for (std::size_t idx = contact_begin[c]; idx < contact_begin[c + 1]; ++idx)
            v(idx, j) = contact_voltages(c, j0 + j);

      RobustSolveReport rrep;
      const LinearOpMany op = [&](const Matrix& x, Matrix& y) {
        apply_restricted_many(x, y);
        fault_corrupt(FaultSite::kSolverApply, y);
      };
      const DirectSolveFn direct =
          panels.size() <= kMaxDirectDim
              ? DirectSolveFn([&](const Matrix& bb) { return direct_solve(bb); })
              : DirectSolveFn();
      // No PcgBlockScratch: these panels x 16 blocks are 5-80x smaller than
      // the FD solver's and fault little, while blocks kept past the call
      // raised peak memory (docs/ARCHITECTURE.md, "Sparse engine").
      const Matrix q = robust_pcg_block(
          op, v,
          {.iter = {.rel_tol = options.rel_tol, .max_iterations = options.max_iterations}},
          &rrep, block_precond.get(), /*tighter=*/nullptr, direct);
      accumulate_diag(diag, rrep);
      total_iterations += static_cast<long>(rrep.iterations) * static_cast<long>(kc);
      stat_solves += static_cast<long>(kc);

      for (std::size_t j = 0; j < kc; ++j) {
        for (std::size_t c = 0; c < n; ++c) {
          double s = 0.0;
          for (std::size_t idx = contact_begin[c]; idx < contact_begin[c + 1]; ++idx)
            s += q(idx, j);
          currents(c, j0 + j) = s;
        }
      }
    }
    return currents;
  }
};

SurfaceSolver::SurfaceSolver(const Layout& layout, const SubstrateStack& stack,
                             SurfaceSolverOptions options)
    : impl_(std::make_unique<Impl>(layout, stack, options)) {
  SUBSPAR_REQUIRE(layout.n_contacts() > 0);
  // Like QuickSub, the eigendecomposition path needs a finite DC eigenvalue:
  // floating substrates are handled by the resistive-layer emulation.
  SUBSPAR_REQUIRE(stack.backplane() == Backplane::kGrounded);
  SUBSPAR_REQUIRE(is_power_of_two(layout.panels_x()) && is_power_of_two(layout.panels_y()));

  const std::size_t mx = layout.panels_x(), ny = layout.panels_y();
  const double a = layout.width(), b = layout.height();
  const double h2 = layout.panel_size() * layout.panel_size();
  auto& lt = impl_->lambda_tilde;
  lt.resize(mx * ny);
  for (std::size_t m = 0; m < mx; ++m) {
    for (std::size_t n = 0; n < ny; ++n) {
      double lam;
      if (m == 0 && n == 0) {
        lam = stack.lambda_dc();
      } else {
        const double gamma = kPi * std::sqrt((static_cast<double>(m) / a) * (static_cast<double>(m) / a) +
                                             (static_cast<double>(n) / b) * (static_cast<double>(n) / b));
        lam = stack.lambda(gamma);
      }
      const double sm = sinc_factor(m, mx);
      const double sn = sinc_factor(n, ny);
      lt[m * ny + n] = lam * sm * sm * sn * sn / h2;
      SUBSPAR_ENSURE(lt[m * ny + n] > 0.0 && std::isfinite(lt[m * ny + n]));
    }
  }

  // Flatten contact panels, and list the grid rows and columns they occupy.
  std::vector<char> row_used(ny, 0), col_used(mx, 0);
  impl_->contact_begin.push_back(0);
  for (std::size_t c = 0; c < layout.n_contacts(); ++c) {
    for (const std::size_t p : layout.contact_panels(c)) {
      impl_->panels.push_back(p);
      row_used[p / mx] = 1;
      col_used[p % mx] = 1;
    }
    impl_->contact_begin.push_back(impl_->panels.size());
  }
  for (std::size_t y = 0; y < ny; ++y)
    if (row_used[y]) impl_->panel_rows.push_back(y);
  for (std::size_t x = 0; x < mx; ++x)
    if (col_used[x]) impl_->panel_cols.push_back(x);

  if (options.contact_block_precond) {
    // Approximate per-contact diagonal blocks of A_cc assuming translation
    // invariance of the panel kernel: one operator apply at a central panel
    // gives the kernel column, from which each (small) block is assembled.
    Vector unit(impl_->grid_size());
    const std::size_t cx = mx / 2, cy = ny / 2;
    unit[cx + mx * cy] = 1.0;
    const Vector kernel = impl_->apply_grid(unit);
    std::vector<Cholesky> factors;
    for (std::size_t c = 0; c < layout.n_contacts(); ++c) {
      const auto cpanels = layout.contact_panels(c);
      const std::size_t np = cpanels.size();
      Matrix blockm(np, np);
      for (std::size_t i = 0; i < np; ++i) {
        const long xi = static_cast<long>(cpanels[i] % mx), yi = static_cast<long>(cpanels[i] / mx);
        for (std::size_t j = i; j < np; ++j) {
          const long xj = static_cast<long>(cpanels[j] % mx), yj = static_cast<long>(cpanels[j] / mx);
          // One kernel lookup per unordered panel pair, symmetrized by
          // construction (the kernel is even in the offset up to boundary
          // effects, which a preconditioner may ignore). Iterating j >= i
          // only also keeps the lookup of pair (i, j) from being silently
          // overwritten by the mirrored lookup of pair (j, i).
          const double val = kernel_block_entry(kernel, mx, ny, cx, cy, xj - xi, yj - yi);
          blockm(i, j) = val;
          blockm(j, i) = val;
        }
      }
      // Postcondition, not a tautology-by-intent: CG requires a symmetric
      // preconditioner, so any future change to the assembly above must
      // keep the block exactly symmetric or fail loudly here.
      for (std::size_t i = 0; i < np; ++i)
        for (std::size_t j = i + 1; j < np; ++j)
          SUBSPAR_ENSURE(blockm(i, j) == blockm(j, i));
      try {
        factors.emplace_back(blockm);
      } catch (const std::invalid_argument&) {
        // The translation-invariant approximation can go indefinite for
        // contacts large relative to the grid; fall back to the diagonal.
        Matrix diag(np, np);
        for (std::size_t i = 0; i < np; ++i) diag(i, i) = blockm(i, i);
        factors.emplace_back(diag);
      }
    }
    impl_->block_precond =
        std::make_unique<ContactBlockPreconditioner>(impl_->contact_begin, std::move(factors));
  }
}

SurfaceSolver::~SurfaceSolver() = default;

std::size_t SurfaceSolver::n_contacts() const { return impl_->layout.n_contacts(); }

std::string SurfaceSolver::cache_tag() const {
  const SurfaceSolverOptions& o = impl_->options;
  char buf[96];
  // The SIMD backend is deliberately not digested (all backends agree to
  // solver tolerance).
  std::snprintf(buf, sizeof buf, "|%a|%zu|%d|", o.rel_tol, o.max_iterations,
                o.contact_block_precond ? 1 : 0);
  return name() + buf + substrate_fingerprint(impl_->layout, impl_->stack);
}

Vector SurfaceSolver::apply_panel_operator(const Vector& panel_currents) const {
  SUBSPAR_REQUIRE(panel_currents.size() == impl_->grid_size());
  return impl_->apply_grid(panel_currents);
}

double SurfaceSolver::avg_iterations() const {
  return impl_->stat_solves == 0
             ? 0.0
             : static_cast<double>(impl_->total_iterations) /
                   static_cast<double>(impl_->stat_solves);
}

void SurfaceSolver::reset_iteration_stats() const {
  impl_->total_iterations = 0;
  impl_->stat_solves = 0;
}

Vector SurfaceSolver::do_solve(const Vector& contact_voltages) const {
  Matrix v(contact_voltages.size(), 1);
  v.set_col(0, contact_voltages);
  return impl_->solve_block(v, diag()).col(0);
}

Matrix SurfaceSolver::do_solve_many(const Matrix& contact_voltages) const {
  return impl_->solve_block(contact_voltages, diag());
}

}  // namespace subspar
