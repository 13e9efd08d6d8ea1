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
// The lateral transforms are dense orthonormal DCT-II matrices, applied to
// the caller's block where it lies. A row-major n x k block of right-hand
// sides already is the grid, laid out [z][y][x][column]: every (z, y) line
// group is an nx x k panel and every z-plane an ny x (nx k) panel. The x-DCT
// multiplies C_x into each line group, the y-DCT multiplies C_y into each
// plane, both through one backend kernel (KernelOps::panel_f64) that reads
// the panel in place and keeps the packed GEMM's per-output chain. The
// tridiagonal pivots of every (kx, ky) mode are factored once at
// construction, so each z-solve is two streaming sweeps over whole spectral
// planes. The inverse y-DCT follows, and the inverse x-DCT writes straight
// into the caller's output. Two per-thread n x k scratch blocks hold the
// spectral data between the steps; nothing is transposed, copied or zeroed.
#pragma once

#include <cstddef>
#include <new>
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

/// std::allocator on 64-byte (cache-line) boundaries.
template <class T>
struct CacheLineAllocator {
  using value_type = T;
  CacheLineAllocator() = default;
  template <class U>
  CacheLineAllocator(const CacheLineAllocator<U>&) {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{64}));
  }
  void deallocate(T* p, std::size_t) { ::operator delete(p, std::align_val_t{64}); }
  friend bool operator==(const CacheLineAllocator&, const CacheLineAllocator&) { return true; }
};

class FastPoisson3D {
 public:
  /// nx and ny must be powers of two, like the FD grids this
  /// preconditions; nz is arbitrary.
  explicit FastPoisson3D(PoissonGrid grid);

  /// Exact solve of M x = b in O(N (nx + ny)). If the grid is floating (no
  /// top or bottom anchors), the all-constant mode is regularized by a tiny
  /// anchor so M stays usable as an SPD preconditioner. A one-column
  /// solve_many.
  Vector solve(const Vector& b) const;

  /// X = M^{-1} B for k right-hand-side columns, written into the caller's
  /// x (already size() x k; every entry is overwritten; x must not be b),
  /// each step fanned out over the util/parallel pool in fixed partitions.
  /// Every output's arithmetic depends only on its own column, so columns
  /// are bit-identical to single solves for any k and any SUBSPAR_THREADS.
  /// The two scratch blocks belong to the calling thread and are reused
  /// across calls, so a steady stream of solves allocates nothing.
  void solve_many(const Matrix& b, Matrix& x) const;

  /// y = M x (real-space stencil application) for validation.
  Vector apply(const Vector& x) const;

  const PoissonGrid& grid() const { return grid_; }

 private:
  /// x = M^{-1} b for the row-major size() x k blocks at b and x.
  void solve_block(const double* b, double* x, std::size_t k) const;

  /// Doubles on cache-line boundaries: the kernel's 8-wide loads of a
  /// column of C or of a scratch row then never straddle two lines.
  using Lines = std::vector<double, CacheLineAllocator<double>>;

  PoissonGrid grid_;
  // The lateral transforms in panel_f64's column-major form: C_x and C_x'
  // (forward and inverse x-DCT), C_y and C_y', with C = dct2_matrix(n).
  Lines cx_, cxt_, cy_, cyt_;
  // Thomas factors of every (kx, ky) mode's z-system, laid out [ky][z][kx]
  // so one ky's sweep reads them in order: reciprocal pivots and the
  // eliminated super-diagonal c'.
  std::vector<double> inv_pivot_, cprime_;
};

}  // namespace subspar
