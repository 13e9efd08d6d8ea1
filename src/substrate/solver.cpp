#include "substrate/solver.hpp"

#include <algorithm>

#include "linalg/robust.hpp"
#include "util/cancel.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace subspar {

std::string substrate_fingerprint(const Layout& layout, const SubstrateStack& stack) {
  Fnv1a hash;
  hash.u64(layout.panels_x());
  hash.u64(layout.panels_y());
  hash.f64(layout.panel_size());
  hash.u64(layout.n_contacts());
  for (std::size_t i = 0; i < layout.n_contacts(); ++i) {
    const Contact& c = layout.contact(i);
    hash.u64(c.parts.size());
    for (const Rect& r : c.parts) {
      hash.i64(r.x0);
      hash.i64(r.y0);
      hash.i64(r.w);
      hash.i64(r.h);
    }
  }
  hash.u64(stack.layers().size());
  for (const SubstrateLayer& layer : stack.layers()) {
    hash.f64(layer.thickness);
    hash.f64(layer.conductivity);
  }
  hash.u64(stack.backplane() == Backplane::kGrounded ? 0 : 1);
  return hash.hex();
}

Vector SubstrateSolver::solve(const Vector& contact_voltages) const {
  SUBSPAR_REQUIRE(contact_voltages.size() == n_contacts());
  cancellation_point("solve");
  ++solve_count_;
  return do_solve(contact_voltages);
}

Matrix SubstrateSolver::solve_many(const Matrix& contact_voltages) const {
  SUBSPAR_REQUIRE(contact_voltages.rows() == n_contacts());
  cancellation_point("solve-many");
  solve_count_ += static_cast<long>(contact_voltages.cols());
  return do_solve_many(contact_voltages);
}

void SubstrateSolver::accumulate_diag(SolverDiagnostics& d, const RobustSolveReport& r) {
  d.iterations += static_cast<long>(r.iterations);
  d.max_iteration_hits += static_cast<long>(r.max_iteration_hits);
  d.restarts += static_cast<long>(r.restarts);
  d.tighter_restarts += static_cast<long>(r.tighter_restarts);
  d.direct_columns += static_cast<long>(r.direct_columns);
  d.nonfinite_recoveries += static_cast<long>(r.nonfinite_events);
  if (!r.clean) d.worst_residual = std::max(d.worst_residual, r.worst_residual);
}

Matrix SubstrateSolver::do_solve_many(const Matrix& contact_voltages) const {
  Matrix out(n_contacts(), contact_voltages.cols());
  for (std::size_t j = 0; j < contact_voltages.cols(); ++j)
    out.set_col(j, do_solve(contact_voltages.col(j)));
  return out;
}

Matrix extract_dense(const SubstrateSolver& solver) {
  const std::size_t n = solver.n_contacts();
  Matrix e = Matrix::identity(n);
  return solver.solve_many(e);
}

Matrix extract_columns(const SubstrateSolver& solver, const std::vector<std::size_t>& cols) {
  const std::size_t n = solver.n_contacts();
  Matrix e(n, cols.size());
  for (std::size_t k = 0; k < cols.size(); ++k) {
    SUBSPAR_REQUIRE(cols[k] < n);
    e(cols[k], k) = 1.0;
  }
  return solver.solve_many(e);
}

std::vector<std::size_t> sample_columns(std::size_t n, double fraction) {
  SUBSPAR_REQUIRE(n > 0);
  SUBSPAR_REQUIRE(fraction > 0.0);
  SUBSPAR_REQUIRE(fraction <= 1.0);
  // Clamp the stride to n before the size_t cast: for tiny fractions
  // 1 / fraction can exceed the range of size_t (undefined conversion), and
  // any stride >= n means "just column 0" anyway. The sample is never empty.
  const double inv = 1.0 / fraction;
  const std::size_t stride =
      inv >= static_cast<double>(n)
          ? n
          : std::max<std::size_t>(1, static_cast<std::size_t>(inv));
  std::vector<std::size_t> cols;
  for (std::size_t j = 0; j < n; j += stride) cols.push_back(j);
  return cols;
}

}  // namespace subspar
