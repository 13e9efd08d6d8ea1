#include "transform/poisson.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/backend.hpp"
#include "transform/dct.hpp"
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

// f(e, kx) over one spectral row of nx * k entries, entry e having mode kx.
// One column is one contiguous loop along kx, and two or three columns
// unroll each mode's entries: a loop over so few would cost more than its
// body. Wider rows loop over each mode's k entries, which GCC vectorizes.
// (Unrolled at 4 or 8 columns, the modes were vectorized instead, with
// interleaving shuffles that doubled the sweep's time.)
template <std::size_t K, class F>
void for_modes(std::size_t nx, F& f) {
  for (std::size_t kx = 0; kx < nx; ++kx)
    for (std::size_t j = 0; j < K; ++j) f(kx * K + j, kx);
}

template <class F>
void for_row(std::size_t nx, std::size_t k, F&& f) {
  if (k == 1) return for_modes<1>(nx, f);
  if (k == 2) return for_modes<2>(nx, f);
  if (k == 3) return for_modes<3>(nx, f);
  for (std::size_t kx = 0; kx < nx; ++kx)
    for (std::size_t j = 0; j < k; ++j) f(kx * k + j, kx);
}

}  // namespace

FastPoisson3D::FastPoisson3D(PoissonGrid grid) : grid_(std::move(grid)) {
  const PoissonGrid& g = grid_;
  SUBSPAR_REQUIRE(g.nx > 0 && g.ny > 0 && g.nz > 0);
  SUBSPAR_REQUIRE(is_power_of_two(g.nx) && is_power_of_two(g.ny));
  SUBSPAR_REQUIRE(g.lateral_g.size() == g.nz);
  SUBSPAR_REQUIRE(g.vertical_g.size() + 1 == g.nz || g.nz == 1);
  // C column-major is C' row-major.
  const auto rows_of = [](const Matrix& m) {
    return Lines(m.row_ptr(0), m.row_ptr(0) + m.rows() * m.cols());
  };
  const Matrix dx = dct2_matrix(g.nx), dy = dct2_matrix(g.ny);
  cx_ = rows_of(dx.transposed());
  cxt_ = rows_of(dx);
  cy_ = rows_of(dy.transposed());
  cyt_ = rows_of(dy);
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

void FastPoisson3D::solve_block(const double* b, double* x, std::size_t k) const {
  const PoissonGrid& g = grid_;
  const std::size_t nx = g.nx, ny = g.ny, nz = g.nz;
  const std::size_t line = nx * k;  // one (z, y) line group: nx x k
  // The calling thread's scratch, captured as plain pointers: a lambda body
  // naming them would re-resolve the thread_local on the pool worker. Every
  // entry a step reads was written by the step before it.
  thread_local Lines scratch_a, scratch_b;
  if (scratch_a.size() < nz * ny * line) {
    scratch_a.resize(nz * ny * line);
    scratch_b.resize(nz * ny * line);
  }
  double* const sa = scratch_a.data();
  double* const sb = scratch_b.data();
  const KernelOps& ops = kernel_ops();

  // One z-plane per task: the x-DCT of its ny line groups (c = C_x
  // column-major), then the y-DCT of the whole plane (c = C_y) while it is
  // still in this core's cache; the inverse runs the pair in reverse.
  const std::size_t plane = ny * line;
  const auto x_dct = [&](const double* c, const double* src, double* dst) {
    for (std::size_t q = 0; q < ny; ++q)
      ops.panel_f64(c, nx, nx, src + q * line, k, k, dst + q * line, k);
  };
  const auto y_dct = [&](const double* c, const double* src, double* dst) {
    ops.panel_f64(c, ny, ny, src, line, line, dst, line);
  };
  parallel_for(nz, [&](std::size_t z) {
    x_dct(cx_.data(), b + z * plane, sa + z * plane);    // x -> kx
    y_dct(cy_.data(), sa + z * plane, sb + z * plane);  // y -> ky: rows [ky] of [kx][column]
  });

  // Tridiagonal z-solves of every (kx, ky) mode, one ky per task: forward
  // elimination and back substitution, each a sweep over whole (z, ky) rows.
  parallel_for(ny, [&](std::size_t ky) {
    double* const spec = sb + ky * line;  // the (z = 0, ky) row; z stride = plane
    const double* inv = inv_pivot_.data() + ky * nz * nx;
    const double* cp = cprime_.data() + ky * nz * nx;
    for_row(nx, k, [&](std::size_t e, std::size_t kx) { spec[e] *= inv[kx]; });
    for (std::size_t z = 1; z < nz; ++z) {
      double* cur = spec + z * plane;
      const double* prev = cur - plane;
      const double* piv = inv + z * nx;
      const double gz = g.vertical_g[z - 1];
      for_row(nx, k, [&](std::size_t e, std::size_t kx) {
        cur[e] = (cur[e] + gz * prev[e]) * piv[kx];
      });
    }
    for (std::size_t z = nz - 1; z-- > 0;) {
      double* cur = spec + z * plane;
      const double* next = cur + plane;
      const double* c = cp + z * nx;
      for_row(nx, k, [&](std::size_t e, std::size_t kx) { cur[e] -= c[kx] * next[e]; });
    }
  });

  parallel_for(nz, [&](std::size_t z) {
    y_dct(cyt_.data(), sb + z * plane, sa + z * plane);  // ky -> y
    x_dct(cxt_.data(), sa + z * plane, x + z * plane);   // kx -> x, into the caller's block
  });
}

Vector FastPoisson3D::solve(const Vector& b) const {
  SUBSPAR_REQUIRE(b.size() == grid_.size());
  Vector x(b.size());
  solve_block(b.data(), x.data(), 1);
  return x;
}

void FastPoisson3D::solve_many(const Matrix& b, Matrix& x) const {
  const std::size_t n = grid_.size(), k = b.cols();
  SUBSPAR_REQUIRE(b.rows() == n && x.rows() == n && x.cols() == k && &x != &b);
  if (k == 0) return;
  solve_block(b.row_ptr(0), x.row_ptr(0), k);
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
