// Public header: the substrate-solver registry/factory.
//
// Callers name a discretization instead of hardwiring a concrete type:
//
//   auto solver = make_solver(SolverKind::kSurface, layout, stack);
//
// returns the black-box SubstrateSolver interface, so switching between the
// surface eigenfunction solver, the volume finite-difference solver, and
// the multigrid-preconditioned variant is a one-enum change (or a string,
// for CLI/config-driven callers). Out-of-tree solvers plug in through
// register_solver and become constructible by name alongside the built-ins.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "geometry/layout.hpp"
#include "substrate/eigen_solver.hpp"
#include "substrate/fd_solver.hpp"
#include "substrate/solver.hpp"
#include "substrate/stack.hpp"

namespace subspar {

/// The built-in black-box discretizations of the substrate operator G.
enum class SolverKind {
  kSurface,    ///< eigenfunction (DCT) surface solver (§2.3) — fast, layered stacks only
  kFd,         ///< volume finite-difference solver (§2.2) — handles wells, any stack
  kMultigrid,  ///< finite-difference solver with the geometric-multigrid preconditioner
};

/// Union of per-kind construction options. Only the member matching the
/// requested kind is consulted: `surface` for kSurface, `fd` for kFd and
/// kMultigrid (whose preconditioner choice is overridden to multigrid).
struct SolverConfig {
  SurfaceSolverOptions surface{};
  FdSolverOptions fd{};
};

/// Stable registry name of a built-in kind ("surface", "fd", "multigrid").
const char* solver_kind_name(SolverKind kind);

/// Constructs a solver of the given kind over (layout, stack).
std::unique_ptr<SubstrateSolver> make_solver(SolverKind kind, const Layout& layout,
                                             const SubstrateStack& stack,
                                             const SolverConfig& config = {});

/// Constructs a solver by registry name; throws std::invalid_argument for
/// an unknown name (the message lists the registered names).
std::unique_ptr<SubstrateSolver> make_solver(const std::string& name, const Layout& layout,
                                             const SubstrateStack& stack,
                                             const SolverConfig& config = {});

/// Factory signature for registry entries.
using SolverFactory = std::function<std::unique_ptr<SubstrateSolver>(
    const Layout&, const SubstrateStack&, const SolverConfig&)>;

/// Registers (or replaces) a named factory. The built-ins are pre-registered
/// under their solver_kind_name()s. Thread-safe.
void register_solver(const std::string& name, SolverFactory factory);

/// Sorted names currently registered.
std::vector<std::string> registered_solvers();

}  // namespace subspar
