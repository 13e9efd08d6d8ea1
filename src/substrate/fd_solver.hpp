// Finite-difference (grid-of-resistors) substrate solver (§2.2).
//
// The substrate volume is discretized into an nx x ny x nz node grid with
// resistors g = sigma h between lateral neighbors, series-combined resistors
// across layer boundaries (Fig. 2-2), Neumann sidewalls by omission, contact
// (Dirichlet) ghost nodes half a grid spacing above the surface eliminated
// into the top-plane equations, and an optional grounded backplane. The SPD
// system is solved with PCG under a selectable preconditioner — the subject
// of Table 2.1.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "geometry/layout.hpp"
#include "substrate/solver.hpp"
#include "substrate/stack.hpp"

namespace subspar {

enum class FdPreconditioner {
  kNone,
  kIncompleteCholesky,  ///< ICCG baseline (§2.2.2)
  kFastDirichlet,       ///< fast Poisson solver, p = 1
  kFastNeumann,         ///< fast Poisson solver, p = 0
  kFastAreaWeighted,    ///< fast Poisson solver, p = contact-area fraction
  kMultigrid,           ///< geometric V-cycle (the §2.2.2 future-work idea)
};

/// A well: a rectangular indentation in the top substrate surface (§2.1,
/// §2.2 — the realistic-feature case only the volume discretization can
/// handle, and the reason the sparsifiers assume nothing beyond a black
/// box). The region's top `depth` is etched away: those grid nodes are
/// removed (their resistors omitted = Neumann walls around the cavity).
/// Rectangle in physical units; may not overlap any contact.
struct SubstrateWell {
  double x0 = 0.0, y0 = 0.0, width = 0.0, height = 0.0;
  double depth = 0.0;
};

struct FdSolverOptions {
  double grid_h = 2.0;  ///< node spacing; surface width / grid_h must be a power of two
  FdPreconditioner precond = FdPreconditioner::kFastAreaWeighted;
  double rel_tol = 1e-6;
  std::size_t max_iterations = 5000;
  /// Contact ghost resistor length: the top surface sits h/2 above the top
  /// node plane, so the accurate ghost conductance is 2 sigma h (true).
  /// false reproduces the paper's full-h "first placement" stencil
  /// (eq. 2.15), which adds h/2 of spurious contact resistance.
  bool ghost_half_spacing = true;
  /// Surface indentations. Non-empty wells disable the fast-solver
  /// preconditioners' exactness (they still work as approximations) and are
  /// invisible to the sparsifiers — exactly the black-box genericity claim.
  std::vector<SubstrateWell> wells{};
};

class FdSolver : public SubstrateSolver {
 public:
  FdSolver(const Layout& layout, const SubstrateStack& stack, FdSolverOptions options = {});
  ~FdSolver() override;

  std::size_t n_contacts() const override;
  std::string name() const override { return "finite-difference"; }
  /// name() plus every option that changes the discretized operator —
  /// grid spacing, ghost placement, wells, preconditioner, tolerances —
  /// plus the construction (layout, stack) fingerprint
  /// (see SubstrateSolver::cache_tag).
  std::string cache_tag() const override;

  std::size_t grid_nodes() const;
  double avg_iterations() const;
  void reset_iteration_stats() const;

  /// Full interior voltage solution for given contact voltages (the raw
  /// PCG solution; exposed for tests and field inspection).
  Vector solve_volume(const Vector& contact_voltages) const;

 protected:
  Vector do_solve(const Vector& contact_voltages) const override;
  /// Batched solve: blocked PCG over column chunks, the operator applied
  /// as one row-partitioned SpMM and the preconditioner as one blockwise
  /// Preconditioner::apply_many per iteration (IC(0) sweeps, batched
  /// multigrid V-cycles, or threaded fast-Poisson solves), each writing
  /// into a block the calling thread keeps from chunk to chunk. Each
  /// chunk's contact currents are read off its top-plane contact nodes as
  /// soon as it converges, so no full-batch volume matrix is kept. Throws
  /// SolverConvergenceError when the fallback chain cannot converge a chunk.
  Matrix do_solve_many(const Matrix& contact_voltages) const override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace subspar
