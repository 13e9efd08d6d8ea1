// Geometric multigrid for the grid-of-resistors substrate system — the
// direction §2.2.2 leaves as future work ("multigrid techniques ... may be
// very useful here. The iteration counts could possibly be reduced somewhat,
// and each iteration would probably cost less than for PCG").
//
// A V-cycle over rediscretized coarse grids: each level halves every even
// dimension (semicoarsening in x/y when nz is odd), with layer conductivity
// profiles and the contact/backplane couplings re-sampled per level — the
// "dealing with layer boundaries in the coarse-grid representation" issue
// the thesis calls out is handled by conductance-preserving aggregation.
// Smoothing is symmetric Gauss-Seidel (lexicographic, or red-black for
// parallel sweeps) and restriction is the transpose of piecewise-constant
// prolongation (scaled), so one V-cycle is a symmetric positive operator
// usable directly as a PCG preconditioner.
//
// The engine entry point is vcycle_many: all k right-hand sides descend
// the hierarchy together — one smoothing sweep, one restriction, one
// coarse solve (dense Cholesky, factored once at construction) per level
// per *block* instead of per vector, with each row's k columns swept
// contiguously.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "linalg/iterative.hpp"
#include "linalg/sparse.hpp"
#include "linalg/vector.hpp"

namespace subspar {

/// Geometry + coefficients of one structured substrate grid.
struct GridSpec {
  std::size_t nx = 0, ny = 0, nz = 0;  ///< z index 0 = bottom
  double h = 0.0;
  std::vector<double> sigma;     ///< plane conductivities, size nz
  std::vector<double> g_top;     ///< per-top-node contact ghost conductance, nx*ny (0 = none)
  double g_bottom = 0.0;         ///< per-bottom-node backplane conductance
  std::vector<char> removed;     ///< optional etched nodes, nx*ny*nz (empty = none)

  std::size_t size() const { return nx * ny * nz; }
  std::size_t index(std::size_t x, std::size_t y, std::size_t z) const {
    return x + nx * (y + ny * z);
  }
  /// Conductance between planes z and z + 1: two h/2 resistors in series
  /// across the plane gap (Fig. 2-2). Size nz - 1.
  std::vector<double> vertical_conductances() const;
};

/// Assembles the SPD grid-of-resistors matrix of a GridSpec (eq. 2.9, with
/// series-combined layer-boundary resistors and identity rows for removed
/// nodes). Rows are written straight into CSR in ascending column order;
/// exact-zero couplings are not stored.
SparseMatrix assemble_grid_laplacian(const GridSpec& spec);

/// Gauss-Seidel sweep ordering inside one smoothing pass.
enum class MultigridSmoother {
  kGaussSeidel,  ///< lexicographic symmetric GS: serial rows, columns batched
  kRedBlack,     ///< red-black GS: each color's rows sweep in parallel
};

struct MultigridOptions {
  int max_levels = 8;
  std::size_t coarsest_max_nodes = 600;  ///< dense Cholesky below this
  int smoothing_sweeps = 1;              ///< symmetric GS pre/post sweeps
  MultigridSmoother smoother = MultigridSmoother::kGaussSeidel;
};

class GridMultigrid {
 public:
  explicit GridMultigrid(GridSpec fine, MultigridOptions options = {});
  ~GridMultigrid();

  /// One V-cycle applied to b from a zero initial guess: the preconditioner
  /// action M^{-1} b. Single-vector wrapper over vcycle_many.
  Vector vcycle(const Vector& b) const;

  /// One V-cycle on k right-hand sides at once (the columns of b): the
  /// whole block descends each level together. Column j is bit-identical
  /// to vcycle_many of that column alone, for any SUBSPAR_THREADS.
  Matrix vcycle_many(const Matrix& b) const;

  /// Stand-alone iterative solve by repeated V-cycles (residual-corrected),
  /// mostly for tests; returns the iterate after `cycles` cycles.
  Vector solve(const Vector& b, std::size_t cycles) const;

  std::size_t levels() const { return levels_.size(); }
  const SparseMatrix& fine_matrix() const;

 private:
  struct Level {
    GridSpec spec;
    SparseMatrix a;
    std::vector<std::size_t> diag;  // CSR index of the diagonal per row
    std::vector<std::size_t> red, black;      // (x+y+z) parity classes
    bool cx = false, cy = false, cz = false;  // which dims the next level halves
  };

  void smooth_many(const Level& lvl, Matrix& x, const Matrix& b, bool forward) const;
  Matrix restrict_to_coarse(std::size_t fine_level, const Matrix& r) const;
  void prolong_add_to_fine(std::size_t fine_level, Matrix& xf, const Matrix& xc) const;
  void cycle_many(std::size_t level, Matrix& x, const Matrix& b) const;

  MultigridOptions options_;
  std::vector<Level> levels_;
  std::unique_ptr<class Cholesky> coarse_solver_;
};

/// A GridMultigrid V-cycle behind the blockwise Preconditioner interface
/// (non-owning; the multigrid must outlive the preconditioner).
class MultigridPreconditioner final : public Preconditioner {
 public:
  explicit MultigridPreconditioner(const GridMultigrid& mg) : mg_(&mg) {}
  void apply_many(const Matrix& r, Matrix& z) const override;

 private:
  const GridMultigrid* mg_;
};

}  // namespace subspar
