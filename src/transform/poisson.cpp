#include "transform/poisson.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "transform/dct.hpp"
#include "transform/fft.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace subspar {
namespace {
constexpr double kPi = 3.14159265358979323846;

// Neumann grid-Laplacian eigenvalues 2 - 2 cos(pi k / n) of one lateral
// dimension.
std::vector<double> neumann_eigenvalues(std::size_t n) {
  std::vector<double> mu(n);
  for (std::size_t k = 0; k < n; ++k)
    mu[k] = 2.0 - 2.0 * std::cos(kPi * static_cast<double>(k) / static_cast<double>(n));
  return mu;
}

}  // namespace

// Per-column scratch: the grid as (nz*ny) x nx x-lines and as ny x (nz*nx)
// y-planes, each twice (GEMM input and output).
struct FastPoisson3D::Workspace {
  Workspace() = default;
  explicit Workspace(const PoissonGrid& g)
      : lines(g.nz * g.ny, g.nx), lines_hat(g.nz * g.ny, g.nx), planes(g.ny, g.nz * g.nx),
        planes_hat(g.ny, g.nz * g.nx) {}
  bool fits(const PoissonGrid& g) const {
    return lines.rows() == g.nz * g.ny && lines.cols() == g.nx && planes.rows() == g.ny;
  }
  Matrix lines, lines_hat, planes, planes_hat;
};

// One workspace per thread, like the GEMM pack buffers: a pool worker keeps
// its pages across solve_many calls (solve_column overwrites or re-zeroes
// every matrix before reading it), and only a grid of another shape
// re-allocates.
FastPoisson3D::Workspace& FastPoisson3D::workspace() const {
  thread_local Workspace ws;
  if (!ws.fits(grid_)) ws = Workspace(grid_);
  return ws;
}

FastPoisson3D::FastPoisson3D(PoissonGrid grid) : grid_(std::move(grid)) {
  const PoissonGrid& g = grid_;
  SUBSPAR_REQUIRE(g.nx > 0 && g.ny > 0 && g.nz > 0);
  SUBSPAR_REQUIRE(is_power_of_two(g.nx) && is_power_of_two(g.ny));
  SUBSPAR_REQUIRE(g.lateral_g.size() == g.nz);
  SUBSPAR_REQUIRE(g.vertical_g.size() + 1 == g.nz || g.nz == 1);
  cx_ = dct2_matrix(g.nx);
  cy_ = dct2_matrix(g.ny);
  const std::vector<double> mu_x = neumann_eigenvalues(g.nx);
  const std::vector<double> mu_y = neumann_eigenvalues(g.ny);

  // Floating constant mode: anchor weakly so the solve stays defined
  // (approximates the pseudo-inverse with a huge finite response).
  const bool floating = g.top_g == 0.0 && g.bottom_g == 0.0;
  double gmax = 0.0;
  for (double v : g.vertical_g) gmax = std::max(gmax, v);
  for (double v : g.lateral_g) gmax = std::max(gmax, v);
  const double anchor = 1e-10 * (gmax > 0.0 ? gmax : 1.0);

  // Thomas elimination of each (kx, ky) mode's tridiagonal z-system; only
  // the right-hand side is left for solve time.
  const std::size_t nx = g.nx, nz = g.nz;
  inv_pivot_.resize(g.size());
  cprime_.resize(g.size());
  for (std::size_t ky = 0; ky < g.ny; ++ky) {
    for (std::size_t kx = 0; kx < nx; ++kx) {
      const double lat = mu_x[kx] + mu_y[ky];
      double cprev = 0.0;
      for (std::size_t z = 0; z < nz; ++z) {
        double d = g.lateral_g[z] * lat;
        if (z > 0) d += g.vertical_g[z - 1];
        if (z + 1 < nz) d += g.vertical_g[z];
        if (z == nz - 1) d += g.top_g;
        if (z == 0) d += g.bottom_g;
        if (z == nz - 1 && kx == 0 && ky == 0 && floating) d += anchor;
        const double m = z == 0 ? d : d + g.vertical_g[z - 1] * cprev;
        SUBSPAR_ENSURE(m != 0.0);
        cprev = z + 1 < nz ? -g.vertical_g[z] / m : 0.0;
        const std::size_t at = (ky * nz + z) * nx + kx;
        inv_pivot_[at] = 1.0 / m;
        cprime_[at] = cprev;
      }
    }
  }
}

void FastPoisson3D::solve_column(const double* b, double* x, Workspace& ws) const {
  const PoissonGrid& g = grid_;
  const std::size_t nx = g.nx, ny = g.ny, nz = g.nz;
  Matrix& lines = ws.lines;
  Matrix& lines_hat = ws.lines_hat;
  Matrix& planes = ws.planes;
  Matrix& planes_hat = ws.planes_hat;
  // The grid index x + nx (y + ny z) makes b the row-major (nz*ny) x nx
  // matrix of its x-lines.
  std::copy(b, b + g.size(), lines.row_ptr(0));
  const auto zero = [](Matrix& m) {
    std::fill(m.row_ptr(0), m.row_ptr(0) + m.rows() * m.cols(), 0.0);
  };
  // [z][y][x] <-> [y][z][x] plane reorder between the two lateral
  // transforms: y-lines become the columns of an ny x (nz*nx) matrix.
  const auto to_planes = [&](const Matrix& src, Matrix& dst) {
    for (std::size_t z = 0; z < nz; ++z)
      for (std::size_t y = 0; y < ny; ++y)
        std::copy(src.row_ptr(z * ny + y), src.row_ptr(z * ny + y) + nx, dst.row_ptr(y) + z * nx);
  };
  const auto to_lines = [&](const Matrix& src, Matrix& dst) {
    for (std::size_t z = 0; z < nz; ++z)
      for (std::size_t y = 0; y < ny; ++y)
        std::copy(src.row_ptr(y) + z * nx, src.row_ptr(y) + (z + 1) * nx, dst.row_ptr(z * ny + y));
  };

  zero(lines_hat);
  matmul_nt_add(lines_hat, lines, cx_);  // x-lines -> kx
  to_planes(lines_hat, planes);
  zero(planes_hat);
  matmul_add(planes_hat, cy_, planes);  // y -> ky: rows [ky][z][kx]

  // Tridiagonal z-solves of every (kx, ky) mode: forward elimination and
  // back substitution, each a sweep over contiguous kx rows.
  for (std::size_t ky = 0; ky < ny; ++ky) {
    double* spec = planes_hat.row_ptr(ky);
    const double* inv = inv_pivot_.data() + ky * nz * nx;
    const double* cp = cprime_.data() + ky * nz * nx;
    for (std::size_t kx = 0; kx < nx; ++kx) spec[kx] *= inv[kx];
    for (std::size_t z = 1; z < nz; ++z) {
      double* cur = spec + z * nx;
      const double* prev = cur - nx;
      const double* piv = inv + z * nx;
      const double gz = g.vertical_g[z - 1];
      for (std::size_t kx = 0; kx < nx; ++kx) cur[kx] = (cur[kx] + gz * prev[kx]) * piv[kx];
    }
    for (std::size_t z = nz - 1; z-- > 0;) {
      double* cur = spec + z * nx;
      const double* next = cur + nx;
      const double* c = cp + z * nx;
      for (std::size_t kx = 0; kx < nx; ++kx) cur[kx] -= c[kx] * next[kx];
    }
  }

  zero(planes);
  matmul_tn_add(planes, cy_, planes_hat);  // ky -> y
  to_lines(planes, lines_hat);
  zero(lines);
  matmul_add(lines, lines_hat, cx_);  // kx -> x-lines
  std::copy(lines.row_ptr(0), lines.row_ptr(0) + g.size(), x);
}

Vector FastPoisson3D::solve(const Vector& b) const {
  SUBSPAR_REQUIRE(b.size() == grid_.size());
  Vector x(b.size());
  solve_column(b.data(), x.data(), workspace());
  return x;
}

void FastPoisson3D::solve_many(const Matrix& b, Matrix& x) const {
  const std::size_t n = grid_.size(), k = b.cols();
  SUBSPAR_REQUIRE(b.rows() == n && x.rows() == n && x.cols() == k);
  if (k == 0) return;
  // One blocked transpose makes every column contiguous; each task then
  // solves a fixed stride of columns on its thread's workspace, and one
  // more transpose writes the caller's block. The transposed blocks are
  // the calling thread's scratch, captured as plain pointers: a lambda
  // body naming them would re-resolve the thread_local on the pool worker.
  thread_local std::vector<double> bt_scratch, xt_scratch;
  if (bt_scratch.size() < n * k) {
    bt_scratch.resize(n * k);
    xt_scratch.resize(n * k);
  }
  double* const bt = bt_scratch.data();
  double* const xt = xt_scratch.data();
  transpose_into(b.row_ptr(0), n, k, bt);
  const std::size_t tasks = std::min(k, thread_count());
  parallel_for(tasks, [&, bt, xt](std::size_t t) {
    Workspace& ws = workspace();
    for (std::size_t j = t; j < k; j += tasks) solve_column(bt + j * n, xt + j * n, ws);
  });
  transpose_into(xt, k, n, x.row_ptr(0));
}

Vector FastPoisson3D::apply(const Vector& x) const {
  const auto& g = grid_;
  SUBSPAR_REQUIRE(x.size() == g.size());
  Vector y(g.size());
  for (std::size_t z = 0; z < g.nz; ++z) {
    const double gl = g.lateral_g[z];
    for (std::size_t yy = 0; yy < g.ny; ++yy) {
      for (std::size_t xx = 0; xx < g.nx; ++xx) {
        const std::size_t i = g.index(xx, yy, z);
        double s = 0.0;
        auto couple = [&](std::size_t j, double gc) { s += gc * (x[i] - x[j]); };
        if (xx > 0) couple(g.index(xx - 1, yy, z), gl);
        if (xx + 1 < g.nx) couple(g.index(xx + 1, yy, z), gl);
        if (yy > 0) couple(g.index(xx, yy - 1, z), gl);
        if (yy + 1 < g.ny) couple(g.index(xx, yy + 1, z), gl);
        if (z > 0) couple(g.index(xx, yy, z - 1), g.vertical_g[z - 1]);
        if (z + 1 < g.nz) couple(g.index(xx, yy, z + 1), g.vertical_g[z]);
        if (z == g.nz - 1) s += g.top_g * x[i];
        if (z == 0) s += g.bottom_g * x[i];
        y[i] = s;
      }
    }
  }
  return y;
}

}  // namespace subspar
