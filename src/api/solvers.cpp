#include "subspar/solvers.hpp"

#include <map>
#include <stdexcept>
#include <utility>

#include "util/sync.hpp"

namespace subspar {
namespace {

struct Registry {
  Mutex mutex;
  std::map<std::string, SolverFactory> factories SUBSPAR_GUARDED_BY(mutex);

  Registry() {
    // Static-init runs single-threaded under the magic-static guard, but
    // factories is a guarded member and the uncontended lock is free.
    const MutexLock lock(mutex);
    factories[solver_kind_name(SolverKind::kSurface)] =
        [](const Layout& l, const SubstrateStack& s, const SolverConfig& c) {
          return make_solver(SolverKind::kSurface, l, s, c);
        };
    factories[solver_kind_name(SolverKind::kFd)] =
        [](const Layout& l, const SubstrateStack& s, const SolverConfig& c) {
          return make_solver(SolverKind::kFd, l, s, c);
        };
    factories[solver_kind_name(SolverKind::kMultigrid)] =
        [](const Layout& l, const SubstrateStack& s, const SolverConfig& c) {
          return make_solver(SolverKind::kMultigrid, l, s, c);
        };
  }
};

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace

const char* solver_kind_name(SolverKind kind) {
  switch (kind) {
    case SolverKind::kSurface:
      return "surface";
    case SolverKind::kFd:
      return "fd";
    case SolverKind::kMultigrid:
      return "multigrid";
  }
  throw std::invalid_argument("solver_kind_name: unknown SolverKind");
}

std::unique_ptr<SubstrateSolver> make_solver(SolverKind kind, const Layout& layout,
                                             const SubstrateStack& stack,
                                             const SolverConfig& config) {
  switch (kind) {
    case SolverKind::kSurface:
      return std::make_unique<SurfaceSolver>(layout, stack, config.surface);
    case SolverKind::kFd:
      return std::make_unique<FdSolver>(layout, stack, config.fd);
    case SolverKind::kMultigrid: {
      FdSolverOptions options = config.fd;
      options.precond = FdPreconditioner::kMultigrid;
      return std::make_unique<FdSolver>(layout, stack, options);
    }
  }
  throw std::invalid_argument("make_solver: unknown SolverKind");
}

std::unique_ptr<SubstrateSolver> make_solver(const std::string& name, const Layout& layout,
                                             const SubstrateStack& stack,
                                             const SolverConfig& config) {
  SolverFactory factory;
  {
    Registry& r = registry();
    const MutexLock lock(r.mutex);
    const auto it = r.factories.find(name);
    if (it == r.factories.end()) {
      std::string known;
      for (const auto& [k, _] : r.factories) known += (known.empty() ? "" : ", ") + k;
      throw std::invalid_argument("make_solver: unknown solver '" + name +
                                  "' (registered: " + known + ")");
    }
    factory = it->second;
  }
  return factory(layout, stack, config);
}

void register_solver(const std::string& name, SolverFactory factory) {
  Registry& r = registry();
  const MutexLock lock(r.mutex);
  r.factories[name] = std::move(factory);
}

std::vector<std::string> registered_solvers() {
  Registry& r = registry();
  const MutexLock lock(r.mutex);
  std::vector<std::string> names;
  names.reserve(r.factories.size());
  for (const auto& [name, _] : r.factories) names.push_back(name);
  return names;  // std::map iteration is already sorted
}

}  // namespace subspar
