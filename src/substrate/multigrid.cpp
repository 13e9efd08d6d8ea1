#include "substrate/multigrid.hpp"

#include <cmath>

#include "linalg/cholesky.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace subspar {

std::vector<double> GridSpec::vertical_conductances() const {
  std::vector<double> gz(nz > 1 ? nz - 1 : 0);
  for (std::size_t z = 0; z + 1 < nz; ++z)
    gz[z] = 2.0 * h * sigma[z] * sigma[z + 1] / (sigma[z] + sigma[z + 1]);
  return gz;
}

SparseMatrix assemble_grid_laplacian(const GridSpec& s) {
  SUBSPAR_REQUIRE(s.nx > 0 && s.ny > 0 && s.nz > 0 && s.h > 0.0);
  SUBSPAR_REQUIRE(s.sigma.size() == s.nz);
  SUBSPAR_REQUIRE(s.g_top.size() == s.nx * s.ny);
  SUBSPAR_REQUIRE(s.removed.empty() || s.removed.size() == s.size());
  auto gone = [&](std::size_t i) { return !s.removed.empty() && s.removed[i]; };
  const std::vector<double> gz = s.vertical_conductances();

  const std::size_t n = s.size(), plane = s.nx * s.ny;
  std::vector<std::size_t> rowptr(n + 1, 0), colidx;
  std::vector<double> val;
  colidx.reserve(7 * n);
  val.reserve(7 * n);
  auto emit = [&](std::size_t j, double v) {
    colidx.push_back(j);
    val.push_back(v);
  };
  for (std::size_t z = 0; z < s.nz; ++z) {
    const double gl = s.sigma[z] * s.h;
    for (std::size_t y = 0; y < s.ny; ++y) {
      for (std::size_t x = 0; x < s.nx; ++x) {
        const std::size_t i = s.index(x, y, z);
        if (gone(i)) {
          emit(i, 1.0);  // decoupled identity row
          rowptr[i + 1] = colidx.size();
          continue;
        }
        // Conductance to each neighbour; 0 where the resistor is omitted
        // (grid edge = Neumann sidewall, removed node = cavity wall).
        auto link = [&](bool inside, std::size_t j, double g) {
          return inside && !gone(j) ? g : 0.0;
        };
        const double gxm = link(x > 0, i - 1, gl);
        const double gxp = link(x + 1 < s.nx, i + 1, gl);
        const double gym = link(y > 0, i - s.nx, gl);
        const double gyp = link(y + 1 < s.ny, i + s.nx, gl);
        const double gzm = z > 0 ? link(true, i - plane, gz[z - 1]) : 0.0;
        const double gzp = z + 1 < s.nz ? link(true, i + plane, gz[z]) : 0.0;
        double diag = 0.0;
        for (const double g : {gxm, gxp, gym, gyp, gzm, gzp}) diag += g;
        if (z == s.nz - 1) diag += s.g_top[x + s.nx * y];
        if (z == 0) diag += s.g_bottom;
        if (gzm != 0.0) emit(i - plane, -gzm);
        if (gym != 0.0) emit(i - s.nx, -gym);
        if (gxm != 0.0) emit(i - 1, -gxm);
        // A fully isolated node (possible only in pathological well shapes)
        // degenerates to an identity row.
        emit(i, diag > 0.0 ? diag : 1.0);
        if (gxp != 0.0) emit(i + 1, -gxp);
        if (gyp != 0.0) emit(i + s.nx, -gyp);
        if (gzp != 0.0) emit(i + plane, -gzp);
        rowptr[i + 1] = colidx.size();
      }
    }
  }
  return SparseMatrix::from_csr(n, n, std::move(rowptr), std::move(colidx), std::move(val));
}

namespace {

/// Hierarchy depth cap, and the grid size below which the coarsest level is
/// solved by dense Cholesky.
constexpr std::size_t kMaxLevels = 8;
constexpr std::size_t kCoarsestMaxNodes = 600;

// Halves the marked dimensions, aggregating coefficients so that net
// conductances are preserved in the multigrid sense: plane conductivities
// average, per-node contact couplings sum over the merged footprint and
// rescale by 1/2 (conductance of a resistor grid scales with h).
GridSpec coarsen(const GridSpec& f, bool cx, bool cy, bool cz) {
  GridSpec c;
  c.nx = cx ? f.nx / 2 : f.nx;
  c.ny = cy ? f.ny / 2 : f.ny;
  c.nz = cz ? f.nz / 2 : f.nz;
  c.h = f.h * ((cx || cy || cz) ? 2.0 : 1.0);
  c.sigma.resize(c.nz);
  for (std::size_t z = 0; z < c.nz; ++z)
    c.sigma[z] = cz ? 0.5 * (f.sigma[2 * z] + f.sigma[2 * z + 1]) : f.sigma[z];
  c.g_top.assign(c.nx * c.ny, 0.0);
  const double lateral_merge = (cx ? 2.0 : 1.0) * (cy ? 2.0 : 1.0);
  for (std::size_t y = 0; y < f.ny; ++y)
    for (std::size_t x = 0; x < f.nx; ++x) {
      const std::size_t xx = cx ? x / 2 : x, yy = cy ? y / 2 : y;
      c.g_top[xx + c.nx * yy] += f.g_top[x + f.nx * y] / lateral_merge;
    }
  // Conductance per node grows with h: rescale aggregated couplings.
  for (auto& g : c.g_top) g *= c.h / f.h;
  c.g_bottom = f.g_bottom * lateral_merge / lateral_merge * (c.h / f.h);
  if (!f.removed.empty()) {
    c.removed.assign(c.size(), 0);
    std::vector<int> votes(c.size(), 0), total(c.size(), 0);
    for (std::size_t z = 0; z < f.nz; ++z)
      for (std::size_t y = 0; y < f.ny; ++y)
        for (std::size_t x = 0; x < f.nx; ++x) {
          const std::size_t ci =
              c.index(cx ? x / 2 : x, cy ? y / 2 : y, cz ? z / 2 : z);
          votes[ci] += f.removed[f.index(x, y, z)];
          ++total[ci];
        }
    for (std::size_t i = 0; i < c.size(); ++i) c.removed[i] = 2 * votes[i] > total[i];
  }
  return c;
}

}  // namespace

GridMultigrid::GridMultigrid(GridSpec fine) {
  Level lvl;
  lvl.spec = std::move(fine);
  lvl.a = assemble_grid_laplacian(lvl.spec);
  levels_.push_back(std::move(lvl));

  while (levels_.size() < kMaxLevels && levels_.back().spec.size() > kCoarsestMaxNodes) {
    Level& prev = levels_.back();
    const GridSpec& s = prev.spec;
    const bool cx = s.nx % 2 == 0 && s.nx >= 4;
    const bool cy = s.ny % 2 == 0 && s.ny >= 4;
    const bool cz = s.nz % 2 == 0 && s.nz >= 4;
    if (!cx && !cy && !cz) break;  // nothing left to halve
    prev.cx = cx;
    prev.cy = cy;
    prev.cz = cz;
    Level next;
    next.spec = coarsen(s, cx, cy, cz);
    next.a = assemble_grid_laplacian(next.spec);
    levels_.push_back(std::move(next));
  }

  for (Level& l : levels_) {
    l.diag.assign(l.a.rows(), 0);
    for (std::size_t i = 0; i < l.a.rows(); ++i) {
      bool found = false;
      for (std::size_t k = l.a.row_begin(i); k < l.a.row_end(i); ++k) {
        if (l.a.col_index(k) == i) {
          l.diag[i] = k;
          found = true;
        }
      }
      SUBSPAR_ENSURE(found && l.a.value(l.diag[i]) > 0.0);
    }
  }
  coarse_solver_ = std::make_unique<Cholesky>(levels_.back().a.to_dense());
}

GridMultigrid::~GridMultigrid() = default;

const SparseMatrix& GridMultigrid::fine_matrix() const { return levels_.front().a; }

// One Gauss-Seidel half-sweep on all k columns: rows relax serially
// (ascending forward, descending backward), each updating its contiguous
// k-column slice in place. Per-column arithmetic is identical in batched
// and single-vector use.
void GridMultigrid::smooth_many(const Level& lvl, Matrix& x, const Matrix& b,
                                bool forward) const {
  const SparseMatrix& a = lvl.a;
  const std::size_t n = a.rows();
  const std::size_t k = x.cols();
  for (std::size_t t = 0; t < n; ++t) {
    const std::size_t i = forward ? t : n - 1 - t;
    const double* brow = b.row_ptr(i);
    double* xi = x.row_ptr(i);
    const double d = a.value(lvl.diag[i]);
    const std::size_t e0 = a.row_begin(i), e1 = a.row_end(i);
    // Scalar reduction per column in ascending entry order (diagonal
    // skipped): the same operation sequence for every k, so batched
    // columns relax bit-identically to 1-column sweeps. xi[j] is written
    // only after its reduction completes.
    for (std::size_t j = 0; j < k; ++j) {
      double s = brow[j];
      for (std::size_t e = e0; e < e1; ++e) {
        const std::size_t c = a.col_index(e);
        if (c != i) s -= a.value(e) * x.row_ptr(c)[j];
      }
      xi[j] = s / d;
    }
  }
}

// Batched restriction: each coarse node gathers its merged fine children
// (up to 2^3, enumerated z-major then y then x — the same accumulation
// order as a fine-lexicographic scatter), for all k columns at once.
// Coarse rows are partitioned in fixed chunks over the pool; each output
// row is produced by exactly one task.
Matrix GridMultigrid::restrict_to_coarse(std::size_t fl, const Matrix& r) const {
  const Level& f = levels_[fl];
  const GridSpec& fs = f.spec;
  const GridSpec& cs = levels_[fl + 1].spec;
  const std::size_t k = r.cols();
  Matrix rc(cs.size(), k);
  const std::size_t rows = cs.ny * cs.nz;  // one task unit = one coarse x-row
  parallel_for(rows, [&](std::size_t t) {
    const std::size_t cy = t % cs.ny, cz = t / cs.ny;
    for (std::size_t cxn = 0; cxn < cs.nx; ++cxn) {
      double* out = rc.row_ptr(cs.index(cxn, cy, cz));
      const std::size_t z0 = f.cz ? 2 * cz : cz, z1 = f.cz ? z0 + 2 : z0 + 1;
      const std::size_t y0 = f.cy ? 2 * cy : cy, y1 = f.cy ? y0 + 2 : y0 + 1;
      const std::size_t x0 = f.cx ? 2 * cxn : cxn, x1 = f.cx ? x0 + 2 : x0 + 1;
      for (std::size_t z = z0; z < z1; ++z)
        for (std::size_t y = y0; y < y1; ++y)
          for (std::size_t x = x0; x < x1; ++x) {
            const double* in = r.row_ptr(fs.index(x, y, z));
            for (std::size_t j = 0; j < k; ++j) out[j] += in[j];
          }
      // Scale so R = P' / 2 (conductance halves per refinement: the
      // Galerkin-consistent weight for piecewise-constant P on a resistor
      // grid).
      for (std::size_t j = 0; j < k; ++j) out[j] *= 0.5;
    }
  });
  return rc;
}

// Piecewise-constant prolongation added in place: x_f += P x_c, all k
// columns per fine row at once.
void GridMultigrid::prolong_add_to_fine(std::size_t fl, Matrix& xf, const Matrix& xc) const {
  const Level& f = levels_[fl];
  const GridSpec& fs = f.spec;
  const GridSpec& cs = levels_[fl + 1].spec;
  const std::size_t k = xf.cols();
  const std::size_t rows = fs.ny * fs.nz;
  parallel_for(rows, [&](std::size_t t) {
    const std::size_t y = t % fs.ny, z = t / fs.ny;
    for (std::size_t x = 0; x < fs.nx; ++x) {
      double* out = xf.row_ptr(fs.index(x, y, z));
      const double* in =
          xc.row_ptr(cs.index(f.cx ? x / 2 : x, f.cy ? y / 2 : y, f.cz ? z / 2 : z));
      for (std::size_t j = 0; j < k; ++j) out[j] += in[j];
    }
  });
}

void GridMultigrid::cycle_many(std::size_t level, Matrix& x, const Matrix& b) const {
  if (level + 1 == levels_.size()) {
    // Coarsest grid: the dense Cholesky factored once at construction
    // back-solves the whole block.
    x = coarse_solver_->solve(b);
    return;
  }
  const Level& lvl = levels_[level];
  smooth_many(lvl, x, b, /*forward=*/true);
  const Matrix r = b - lvl.a.apply_many(x);
  const Matrix rc = restrict_to_coarse(level, r);
  Matrix xc(rc.rows(), rc.cols());
  cycle_many(level + 1, xc, rc);
  prolong_add_to_fine(level, x, xc);
  smooth_many(lvl, x, b, /*forward=*/false);
}

Matrix GridMultigrid::vcycle_many(const Matrix& b) const {
  SUBSPAR_REQUIRE(b.rows() == levels_.front().spec.size());
  Matrix x(b.rows(), b.cols());
  if (b.cols() > 0) cycle_many(0, x, b);
  return x;
}

void MultigridPreconditioner::apply_many(const Matrix& r, Matrix& z) const {
  SUBSPAR_REQUIRE(z.rows() == r.rows() && z.cols() == r.cols());
  z = mg_->vcycle_many(r);
}

Vector GridMultigrid::vcycle(const Vector& b) const {
  Matrix bm(b.size(), 1);
  bm.set_col(0, b);
  return vcycle_many(bm).col(0);
}

Vector GridMultigrid::solve(const Vector& b, std::size_t cycles) const {
  Vector x(b.size());
  for (std::size_t c = 0; c < cycles; ++c) {
    const Vector r = b - levels_.front().a.apply(x);
    x += vcycle(r);
  }
  return x;
}

}  // namespace subspar
