// Eigenfunction (surface-variable) substrate solver (§2.3.1, Fig. 2-6).
//
// The panel current-to-potential operator A is diagonalized by the 2-D DCT:
//   v = (1/h^2) * DCT^T diag(lambda_mn * sinc_m^2 * sinc_n^2) DCT q,
// where lambda_mn comes from the layer recursion (SubstrateStack::lambda)
// and the sinc^2 factors are the Galerkin panel-averaging weights of the
// uniform-current / average-potential discretization. A is symmetric
// positive definite, so the contact-panel system A_cc q = v is solved with
// (optionally block-preconditioned) CG; contact currents are the per-contact
// panel-current sums.
//
// This solver plays the role of Chou's QuickSub integral-equation code in
// the paper's experiments: same operator, different (CG vs multigrid) inner
// iteration. Like QuickSub it requires a grounded backplane; floating
// substrates use the resistive-bottom-layer emulation (paper_stack).
#pragma once

#include <cstddef>
#include <memory>

#include "geometry/layout.hpp"
#include "linalg/iterative.hpp"
#include "substrate/solver.hpp"
#include "substrate/stack.hpp"

namespace subspar {

struct SurfaceSolverOptions {
  double rel_tol = 1e-6;           ///< CG residual tolerance (paper's choice)
  std::size_t max_iterations = 2000;
  bool contact_block_precond = true;  ///< block-Jacobi over contacts
};

class SurfaceSolver : public SubstrateSolver {
 public:
  SurfaceSolver(const Layout& layout, const SubstrateStack& stack,
                SurfaceSolverOptions options = {});
  ~SurfaceSolver() override;

  std::size_t n_contacts() const override;
  std::string name() const override { return "eigenfunction"; }
  /// name() plus the solve-accuracy options plus the construction
  /// (layout, stack) fingerprint (see SubstrateSolver::cache_tag).
  std::string cache_tag() const override;

  /// v = A q on the full panel grid (q, v of length panels_x * panels_y).
  Vector apply_panel_operator(const Vector& panel_currents) const;

  /// Average CG iterations per solve since the last reset.
  double avg_iterations() const;
  void reset_iteration_stats() const;

 protected:
  Vector do_solve(const Vector& contact_voltages) const override;
  /// Batched solve: one blocked PCG over all columns (chunked to a small
  /// block width), each operator application fanning its columns out over
  /// the SUBSPAR_THREADS pool.
  Matrix do_solve_many(const Matrix& contact_voltages) const override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Translation-invariant kernel lookup used to assemble the per-contact
/// block-Jacobi preconditioner (shared with the test suite): the value of
/// the centered panel-response `kernel` (row-major mx x ny grid with the
/// unit source at (cx, cy)) at panel offset (dx, dy). Offsets past the grid
/// edge are clamped to the edge value — a harmless approximation for a
/// preconditioner.
double kernel_block_entry(const Vector& kernel, std::size_t mx, std::size_t ny,
                          std::size_t cx, std::size_t cy, long dx, long dy);

}  // namespace subspar
