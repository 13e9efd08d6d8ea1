#include "substrate/fd_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/ic0.hpp"
#include "linalg/iterative.hpp"
#include "linalg/robust.hpp"
#include "linalg/sparse.hpp"
#include "substrate/multigrid.hpp"
#include "transform/dct.hpp"
#include "transform/poisson.hpp"
#include "util/check.hpp"

namespace subspar {
namespace {
/// The Table 2.1 fast-Poisson preconditioner behind the blockwise
/// Preconditioner interface: column fan-out over the pool, per-column
/// arithmetic identical to a single solve.
class FastPoissonPreconditioner final : public Preconditioner {
 public:
  explicit FastPoissonPreconditioner(PoissonGrid grid) : fp_(std::move(grid)) {}
  void apply_many(const Matrix& r, Matrix& z) const override { fp_.solve_many(r, z); }

 private:
  FastPoisson3D fp_;
};

/// Tighter-preconditioner stage of the fallback chain: an IC(0) factor built
/// lazily on first use, so healthy runs under the cheap fast-Poisson /
/// multigrid preconditioners never pay for it.
class LazyIc0Preconditioner final : public Preconditioner {
 public:
  explicit LazyIc0Preconditioner(const SparseMatrix& a) : a_(&a) {}
  void apply_many(const Matrix& r, Matrix& z) const override {
    if (!inner_) inner_ = std::make_unique<Ic0Preconditioner>(*a_);
    inner_->apply_many(r, z);
  }

 private:
  const SparseMatrix* a_;
  mutable std::unique_ptr<Ic0Preconditioner> inner_;
};

/// What one thread's block solves keep from chunk to chunk, as
/// FastPoisson3D keeps its scratch: pcg_block's working blocks and the
/// chunk's right-hand side, each nodes x k. After the first chunk on a
/// thread, a chunk allocates no nodes x k block.
struct ThreadBlocks {
  PcgBlockScratch pcg;
  Matrix rhs;
};

ThreadBlocks& thread_blocks() {
  thread_local ThreadBlocks blocks;
  return blocks;
}

}  // namespace

struct FdSolver::Impl {
  Layout layout;
  SubstrateStack stack;
  FdSolverOptions options;

  std::size_t nx = 0, ny = 0, nz = 0;
  double h = 0.0;
  double g_contact = 0.0;  ///< ghost-resistor conductance sigma_top * h

  SparseMatrix a;  // grid-of-resistors Laplacian
  // The sparse engine's preconditioner branch (fast-Poisson / batched
  // multigrid / IC(0)); null = plain CG.
  // The multigrid hierarchy outlives its non-owning preconditioner wrapper.
  std::unique_ptr<GridMultigrid> multigrid;
  std::unique_ptr<Preconditioner> precond;
  // Fallback-chain stages: the tighter preconditioner (lazy IC(0); null when
  // IC(0) already is the primary) and the size-gated dense direct factor.
  std::unique_ptr<Preconditioner> tighter;
  mutable std::unique_ptr<Cholesky> direct_factor;

  // Top-plane node indices per contact (into the full grid vector).
  std::vector<std::vector<std::size_t>> contact_nodes;

  mutable long total_iterations = 0;
  mutable long stat_solves = 0;

  Impl(const Layout& l, const SubstrateStack& s, FdSolverOptions o)
      : layout(l), stack(s), options(o) {}

  std::size_t index(std::size_t x, std::size_t y, std::size_t z) const {
    return x + nx * (y + ny * z);
  }

  // Dense direct fallback: the sparse Laplacian densified and
  // Cholesky-factored once, reused by every later fallback.
  Matrix direct_solve(const Matrix& b) const {
    if (!direct_factor) {
      const std::size_t n = a.rows();
      Matrix dense(n, n);
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t t = a.row_begin(i); t < a.row_end(i); ++t)
          dense(i, a.col_index(t)) = a.value(t);
      direct_factor = std::make_unique<Cholesky>(dense);
    }
    return direct_factor->solve(b);
  }

  // One right-hand-side chunk through the robust fallback chain: pcg_block,
  // then restarts (the last with the lazy IC(0)), then the size-gated dense
  // direct solve. Throws SolverConvergenceError when all of it fails. Every
  // attempt works in the calling thread's PCG blocks.
  Matrix robust_chunk(const Matrix& b, SolverDiagnostics& d, std::size_t* iterations) const {
    RobustSolveReport rrep;
    const LinearOpMany op = [&](const Matrix& p, Matrix& y) {
      a.apply_many(p, y);
      fault_corrupt(FaultSite::kSolverApply, y);
    };
    const DirectSolveFn direct =
        b.rows() <= kMaxDirectDim
            ? DirectSolveFn([this](const Matrix& bb) { return direct_solve(bb); })
            : DirectSolveFn();
    const Matrix xc = robust_pcg_block(
        op, b,
        {.iter = {.rel_tol = options.rel_tol, .max_iterations = options.max_iterations}},
        &rrep, precond.get(), tighter.get(), direct, &thread_blocks().pcg);
    accumulate_diag(d, rrep);
    if (iterations) *iterations = rrep.iterations;
    return xc;
  }

  // Right-hand-side columns [j0, j0 + kc) of the volume system, written
  // into b (re-shaped within its capacity): each contact's ghost resistors
  // inject g_contact * V into its top-plane nodes (shared by the
  // single-column and blocked paths).
  void assemble_rhs(const Matrix& contact_voltages, std::size_t j0, std::size_t kc,
                    Matrix& b) const {
    b.reshape(nx * ny * nz, kc);
    std::fill(b.row_ptr(0), b.row_ptr(0) + nx * ny * nz * kc, 0.0);
    for (std::size_t j = 0; j < kc; ++j)
      for (std::size_t c = 0; c < contact_nodes.size(); ++c)
        for (const std::size_t node : contact_nodes[c])
          b(node, j) += g_contact * contact_voltages(c, j0 + j);
  }

  // Shared volume-solve core: contact-voltage columns -> interior voltage
  // columns, one blocked PCG per chunk of <= kMaxSolveBlock columns, each
  // chunk handed to sink(j0, xc) as soon as it is solved (column j of xc is
  // column j0 + j of the batch). The operator is one row-partitioned SpMM
  // per iteration; the preconditioner one blockwise apply_many. A single
  // column skips the block machinery (k x k Gram solves, deflation
  // bookkeeping, Matrix temporaries) and runs the scalar-recurrence pcg() —
  // substantially cheaper per iteration at equal arithmetic per operator
  // apply.
  template <typename Sink>
  void solve_volume_blocks(const Matrix& contact_voltages, SolverDiagnostics& d,
                           Sink&& sink) const {
    const std::size_t k = contact_voltages.cols();
    if (k == 1) {
      Matrix bm;
      assemble_rhs(contact_voltages, 0, 1, bm);
      const Vector b = bm.col(0);
      IterStats stats;
      const LinearOp op = [&](const Vector& p) {
        Vector y = a.apply(p);
        fault_corrupt(FaultSite::kSolverApply, y);
        return y;
      };
      const LinearOp pre = precond
          ? LinearOp([&](const Vector& r) { return precond->apply(r); })
          : LinearOp();
      Vector xv = pcg(
          op, b, {.rel_tol = options.rel_tol, .max_iterations = options.max_iterations},
          &stats, pre);
      const bool corrupted = fault_corrupt(FaultSite::kSolverSolve, xv);
      bool finite = true;
      for (std::size_t i = 0; i < xv.size() && finite; ++i) finite = std::isfinite(xv[i]);
      total_iterations += static_cast<long>(stats.iterations);
      stat_solves += 1;
      d.iterations += static_cast<long>(stats.iterations);
      if (stats.converged && !corrupted && finite) {
        Matrix x(xv.size(), 1);
        x.set_col(0, xv);
        sink(0, x);
        return;
      }
      // Scalar fast path failed: escalate the single column into the same
      // robust chain the blocked path uses.
      if (!stats.converged) ++d.max_iteration_hits;
      if (!finite) ++d.nonfinite_recoveries;
      std::size_t it = 0;
      const Matrix xc = robust_chunk(bm, d, &it);
      total_iterations += static_cast<long>(it);
      sink(0, xc);
      return;
    }
    Matrix& b = thread_blocks().rhs;
    for (std::size_t j0 = 0; j0 < k; j0 += kMaxSolveBlock) {
      const std::size_t kc = std::min(kMaxSolveBlock, k - j0);
      assemble_rhs(contact_voltages, j0, kc, b);
      std::size_t it = 0;
      const Matrix xc = robust_chunk(b, d, &it);
      total_iterations += static_cast<long>(it) * static_cast<long>(kc);
      stat_solves += static_cast<long>(kc);
      sink(j0, xc);
    }
  }

  // Adds the contact currents of a solved chunk into columns [j0, j0 + kc)
  // of `currents`. Only the top-plane contact rows of xc are read.
  void add_currents(Matrix& currents, const Matrix& contact_voltages, const Matrix& xc,
                    std::size_t j0) const {
    const std::size_t kc = xc.cols();
    for (std::size_t c = 0; c < contact_nodes.size(); ++c) {
      double* out = currents.row_ptr(c) + j0;
      const double* v = contact_voltages.row_ptr(c) + j0;
      for (const std::size_t node : contact_nodes[c]) {
        const double* xr = xc.row_ptr(node);
        for (std::size_t j = 0; j < kc; ++j) out[j] += g_contact * (v[j] - xr[j]);
      }
    }
  }
};

FdSolver::FdSolver(const Layout& layout, const SubstrateStack& stack, FdSolverOptions options)
    : impl_(std::make_unique<Impl>(layout, stack, options)) {
  Impl& im = *impl_;
  SUBSPAR_REQUIRE(layout.n_contacts() > 0);
  SUBSPAR_REQUIRE(options.grid_h > 0.0);
  const double h = options.grid_h;
  im.h = h;

  const double width = layout.width(), height = layout.height(), depth = stack.depth();
  im.nx = static_cast<std::size_t>(std::round(width / h));
  im.ny = static_cast<std::size_t>(std::round(height / h));
  im.nz = static_cast<std::size_t>(std::round(depth / h));
  SUBSPAR_REQUIRE(im.nz >= 2);
  SUBSPAR_REQUIRE(std::abs(static_cast<double>(im.nx) * h - width) < 1e-9 * width);
  SUBSPAR_REQUIRE(is_power_of_two(im.nx) && is_power_of_two(im.ny));

  // The grid-of-resistors system (eq. 2.9). Plane conductivities: node
  // plane z (0 = bottom) sits at depth d - (z + 1/2) h below the surface.
  GridSpec spec;
  spec.nx = im.nx;
  spec.ny = im.ny;
  spec.nz = im.nz;
  spec.h = h;
  spec.sigma.resize(im.nz);
  for (std::size_t z = 0; z < im.nz; ++z)
    spec.sigma[z] = stack.conductivity_at_depth(depth - (static_cast<double>(z) + 0.5) * h);
  im.g_contact = (options.ghost_half_spacing ? 2.0 : 1.0) * spec.sigma[im.nz - 1] * h;
  const bool grounded = stack.backplane() == Backplane::kGrounded;
  spec.g_bottom = grounded ? 2.0 * spec.sigma[0] * h : 0.0;

  // Contact nodes: panels -> top-plane node ranges (node x covers physical
  // [x h, (x+1) h), matching the panel grid when grid_h == panel_size).
  // Each carries the ghost-resistor coupling.
  const double hp = layout.panel_size();
  spec.g_top.assign(im.nx * im.ny, 0.0);
  for (std::size_t c = 0; c < layout.n_contacts(); ++c) {
    std::vector<std::size_t> nodes;
    for (const auto& r : layout.contact(c).parts) {
      const long x0 = std::lround(static_cast<double>(r.x0) * hp / h);
      const long x1 = std::lround(static_cast<double>(r.x1()) * hp / h);
      const long y0 = std::lround(static_cast<double>(r.y0) * hp / h);
      const long y1 = std::lround(static_cast<double>(r.y1()) * hp / h);
      for (long y = y0; y < y1; ++y)
        for (long x = x0; x < x1; ++x) {
          SUBSPAR_REQUIRE(x >= 0 && y >= 0 && x < static_cast<long>(im.nx) &&
                          y < static_cast<long>(im.ny));
          nodes.push_back(im.index(static_cast<std::size_t>(x), static_cast<std::size_t>(y),
                                   im.nz - 1));
          spec.g_top[static_cast<std::size_t>(x) + im.nx * static_cast<std::size_t>(y)] =
              im.g_contact;
        }
    }
    SUBSPAR_REQUIRE(!nodes.empty());  // grid too coarse for this contact otherwise
    im.contact_nodes.push_back(std::move(nodes));
  }

  // Wells: etched-away grid nodes (§2.1). Removed nodes keep identity rows
  // so the system stays SPD with a fixed size; all resistors touching them
  // are omitted, which is exactly a Neumann boundary around the cavity.
  if (!options.wells.empty()) {
    spec.removed.assign(spec.size(), 0);
    for (const SubstrateWell& w : options.wells) {
      SUBSPAR_REQUIRE(w.width > 0.0 && w.height > 0.0 && w.depth > 0.0);
      SUBSPAR_REQUIRE(w.depth < depth);
      for (std::size_t z = 0; z < im.nz; ++z) {
        const double node_depth = depth - (static_cast<double>(z) + 0.5) * h;
        if (node_depth >= w.depth) continue;  // below the cavity floor
        for (std::size_t y = 0; y < im.ny; ++y) {
          for (std::size_t x = 0; x < im.nx; ++x) {
            const double cx = (static_cast<double>(x) + 0.5) * h;
            const double cy = (static_cast<double>(y) + 0.5) * h;
            if (cx >= w.x0 && cx <= w.x0 + w.width && cy >= w.y0 && cy <= w.y0 + w.height)
              spec.removed[im.index(x, y, z)] = 1;
          }
        }
      }
    }
    for (const auto& nodes : im.contact_nodes)
      for (const std::size_t node : nodes)
        SUBSPAR_REQUIRE(!spec.removed[node]);  // wells may not swallow contacts
  }

  im.a = assemble_grid_laplacian(spec);
  // The fallback chain's tighter preconditioner; pointless when IC(0) is
  // already the primary. Lazy: the factor is only built if a solve fails.
  if (options.precond != FdPreconditioner::kIncompleteCholesky)
    im.tighter = std::make_unique<LazyIc0Preconditioner>(im.a);

  // Preconditioner setup: every branch is a Preconditioner instance the
  // blocked PCG applies to whole residual blocks.
  switch (options.precond) {
    case FdPreconditioner::kNone:
      break;
    case FdPreconditioner::kIncompleteCholesky:
      im.precond = std::make_unique<Ic0Preconditioner>(im.a);
      break;
    case FdPreconditioner::kMultigrid:
      im.multigrid = std::make_unique<GridMultigrid>(std::move(spec));
      im.precond = std::make_unique<MultigridPreconditioner>(*im.multigrid);
      break;
    default: {
      double p = 1.0;
      if (options.precond == FdPreconditioner::kFastNeumann) p = 0.0;
      if (options.precond == FdPreconditioner::kFastAreaWeighted) {
        double contact_area = 0.0;
        for (std::size_t c = 0; c < layout.n_contacts(); ++c)
          contact_area += layout.contact_area(c);
        p = contact_area / (width * height);
      }
      PoissonGrid pg;
      pg.nx = im.nx;
      pg.ny = im.ny;
      pg.nz = im.nz;
      pg.lateral_g.resize(im.nz);
      for (std::size_t z = 0; z < im.nz; ++z) pg.lateral_g[z] = spec.sigma[z] * h;
      pg.vertical_g = spec.vertical_conductances();
      pg.top_g = p * im.g_contact;
      pg.bottom_g = spec.g_bottom;
      im.precond = std::make_unique<FastPoissonPreconditioner>(std::move(pg));
      break;
    }
  }
}

FdSolver::~FdSolver() = default;

std::size_t FdSolver::n_contacts() const { return impl_->layout.n_contacts(); }

std::string FdSolver::cache_tag() const {
  const FdSolverOptions& o = impl_->options;
  char buf[160];
  // The SIMD backend is deliberately NOT part of the tag.
  std::snprintf(buf, sizeof buf, "|%a|%d|%a|%zu|%d", o.grid_h, static_cast<int>(o.precond),
                o.rel_tol, o.max_iterations, o.ghost_half_spacing ? 1 : 0);
  std::string tag = name() + buf;
  for (const SubstrateWell& w : o.wells) {
    std::snprintf(buf, sizeof buf, "|%a,%a,%a,%a,%a", w.x0, w.y0, w.width, w.height, w.depth);
    tag += buf;
  }
  return tag + "|" + substrate_fingerprint(impl_->layout, impl_->stack);
}

std::size_t FdSolver::grid_nodes() const { return impl_->nx * impl_->ny * impl_->nz; }

double FdSolver::avg_iterations() const {
  return impl_->stat_solves == 0 ? 0.0
                                 : static_cast<double>(impl_->total_iterations) /
                                       static_cast<double>(impl_->stat_solves);
}

void FdSolver::reset_iteration_stats() const {
  impl_->total_iterations = 0;
  impl_->stat_solves = 0;
}

Vector FdSolver::solve_volume(const Vector& contact_voltages) const {
  SUBSPAR_REQUIRE(contact_voltages.size() == n_contacts());
  Matrix v(contact_voltages.size(), 1);
  v.set_col(0, contact_voltages);
  Vector x;
  impl_->solve_volume_blocks(v, diag(), [&](std::size_t, const Matrix& xc) { x = xc.col(0); });
  return x;
}

Vector FdSolver::do_solve(const Vector& contact_voltages) const {
  Matrix v(contact_voltages.size(), 1);
  v.set_col(0, contact_voltages);
  return do_solve_many(v).col(0);
}

Matrix FdSolver::do_solve_many(const Matrix& contact_voltages) const {
  Matrix currents(n_contacts(), contact_voltages.cols());
  impl_->solve_volume_blocks(contact_voltages, diag(), [&](std::size_t j0, const Matrix& xc) {
    impl_->add_currents(currents, contact_voltages, xc, j0);
  });
  return currents;
}

}  // namespace subspar
