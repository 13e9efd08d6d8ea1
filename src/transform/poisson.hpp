// Fast direct solver for the layered grid-of-resistors Poisson problem with
// uniform boundary conditions on each face (§2.2.2, "fast-solver
// preconditioners").
//
// The lateral (x, y) couplings are diagonalized by 2-D DCTs (Neumann
// sidewalls); what remains is an independent tridiagonal system in z per
// (kx, ky) mode, solved directly. Exact for uniform top-face conditions;
// used as the PCG preconditioner M when the top face mixes contact
// (Dirichlet) and non-contact (Neumann) nodes. The `top_coupling` knob is
// the paper's p parameter: p = 1 gives the pure-Dirichlet preconditioner,
// p = 0 pure-Neumann, intermediate values the area-weighted variant of
// Table 2.1.
//
// The lateral transforms are dense orthonormal DCT-II matrices applied
// through the GEMM layer: a grid vector viewed as the (nz*ny) x nx matrix of
// its x-lines is one product with C_x', and after a plane reorder to
// ny x (nz*nx) the y-transform is one product with C_y. The tridiagonal
// pivots of every (kx, ky) mode are factored once at construction, so each
// z-solve is two streaming sweeps over contiguous kx rows.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace subspar {

struct PoissonGrid {
  std::size_t nx = 0, ny = 0, nz = 0;  ///< node counts; z index 0 = bottom
  /// Lateral resistor conductance per z-plane (sigma(z) * h).
  std::vector<double> lateral_g;
  /// Vertical conductance between plane j and j+1 (size nz - 1).
  std::vector<double> vertical_g;
  /// Extra diagonal coupling on every top-plane node (Dirichlet ghost
  /// resistor, the paper's p * sigma_L * h). 0 disables.
  double top_g = 0.0;
  /// Extra diagonal coupling on every bottom-plane node (backplane contact).
  double bottom_g = 0.0;

  std::size_t size() const { return nx * ny * nz; }
  std::size_t index(std::size_t x, std::size_t y, std::size_t z) const {
    return x + nx * (y + ny * z);
  }
};

class FastPoisson3D {
 public:
  /// nx and ny must be powers of two, like the FD grids this
  /// preconditions; nz is arbitrary.
  explicit FastPoisson3D(PoissonGrid grid);

  /// Exact solve of M x = b in O(N (nx + ny)). If the grid is floating (no
  /// top or bottom anchors), the all-constant mode is regularized by a tiny
  /// anchor so M stays usable as an SPD preconditioner.
  Vector solve(const Vector& b) const;

  /// X = M^{-1} B for k right-hand-side columns, written into the caller's
  /// x (already size() x k; every entry is overwritten; x must not be b),
  /// fanned out over the util/parallel pool. Each column runs solve()'s
  /// routine, so columns are bit-identical to single solves for any
  /// SUBSPAR_THREADS. The transposed blocks and per-task workspaces are
  /// per-thread scratch reused across calls, so a steady stream of solves
  /// allocates nothing.
  void solve_many(const Matrix& b, Matrix& x) const;

  /// y = M x (real-space stencil application) for validation.
  Vector apply(const Vector& x) const;

  const PoissonGrid& grid() const { return grid_; }

 private:
  struct Workspace;
  /// The executing thread's workspace, re-shaped for this grid if needed.
  Workspace& workspace() const;
  /// x = M^{-1} b for one contiguous grid vector, on caller-owned scratch.
  void solve_column(const double* b, double* x, Workspace& ws) const;

  PoissonGrid grid_;
  Matrix cx_, cy_;  // dct2_matrix(nx), dct2_matrix(ny)
  // Thomas factors of every (kx, ky) mode's z-system, laid out like the
  // spectral planes ([ky][z][kx]): reciprocal pivots and the eliminated
  // super-diagonal c'.
  std::vector<double> inv_pivot_, cprime_;
};

}  // namespace subspar
