// Tests for the public API layer (include/subspar/): the solver registry,
// the ExtractionRequest -> ExtractionResult pipeline, and the ModelCache.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <stdexcept>

#include "subspar/subspar.hpp"

namespace subspar {
namespace {

SubstrateStack tiny_stack() {
  // Boundaries on grid planes at h = 2 so the FD solvers stay cheap + exact.
  return SubstrateStack({{2.0, 1.0}, {10.0, 100.0}}, Backplane::kGrounded);
}

// ---- Solver registry -------------------------------------------------------

TEST(SolverRegistry, EveryKindConstructsAndSolves) {
  const Layout layout = regular_grid_layout(4);  // 16 contacts
  const SubstrateStack stack = tiny_stack();
  Vector v(layout.n_contacts());
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = (i % 3 == 0) ? 1.0 : -0.5;
  for (const SolverKind kind :
       {SolverKind::kSurface, SolverKind::kFd, SolverKind::kMultigrid}) {
    const auto solver = make_solver(kind, layout, stack);
    ASSERT_NE(solver, nullptr);
    EXPECT_EQ(solver->n_contacts(), layout.n_contacts());
    const Vector i = solver->solve(v);
    EXPECT_EQ(i.size(), layout.n_contacts());
    EXPECT_EQ(solver->solve_count(), 1);
    // Every discretization must produce finite, nontrivial currents.
    double mx = 0.0;
    for (const double x : i) {
      ASSERT_TRUE(std::isfinite(x));
      mx = std::max(mx, std::abs(x));
    }
    EXPECT_GT(mx, 0.0) << solver_kind_name(kind);
  }
}

TEST(SolverRegistry, KindMatchesDirectConstructionBitExactly) {
  const Layout layout = regular_grid_layout(4);
  const SubstrateStack stack = tiny_stack();
  const auto via_registry = make_solver(SolverKind::kSurface, layout, stack);
  const SurfaceSolver direct(layout, stack);
  Vector v(layout.n_contacts());
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = 0.1 * static_cast<double>(i) - 0.7;
  EXPECT_EQ(norm2(via_registry->solve(v) - direct.solve(v)), 0.0);
}

TEST(SolverRegistry, MultigridKindForcesMultigridPreconditioner) {
  const Layout layout = regular_grid_layout(4);
  const SubstrateStack stack = tiny_stack();
  // Even when the config asks for a different preconditioner, the kind wins.
  SolverConfig config;
  config.fd.precond = FdPreconditioner::kNone;
  const auto solver = make_solver(SolverKind::kMultigrid, layout, stack, config);
  const auto reference = make_solver(SolverKind::kFd, layout, stack,
                                     {.fd = {.precond = FdPreconditioner::kMultigrid}});
  Vector v(layout.n_contacts());
  v[0] = 1.0;
  EXPECT_EQ(norm2(solver->solve(v) - reference->solve(v)), 0.0);
}

TEST(SolverRegistry, ByNameAndByKindAgree) {
  const Layout layout = regular_grid_layout(4);
  const SubstrateStack stack = tiny_stack();
  for (const SolverKind kind : {SolverKind::kSurface, SolverKind::kFd}) {
    const auto by_name = make_solver(std::string(solver_kind_name(kind)), layout, stack);
    const auto by_kind = make_solver(kind, layout, stack);
    EXPECT_EQ(by_name->name(), by_kind->name());
  }
  EXPECT_THROW(make_solver("no-such-solver", layout, stack), std::invalid_argument);
}

TEST(SolverRegistry, CustomRegistrationIsConstructibleByName) {
  const std::string name = "custom-surface-loose";
  register_solver(name, [](const Layout& l, const SubstrateStack& s, const SolverConfig& c) {
    SurfaceSolverOptions options = c.surface;
    options.rel_tol = 1e-3;
    return std::make_unique<SurfaceSolver>(l, s, options);
  });
  const auto names = registered_solvers();
  EXPECT_NE(std::find(names.begin(), names.end(), name), names.end());
  const Layout layout = regular_grid_layout(4);
  const auto solver = make_solver(name, layout, tiny_stack());
  EXPECT_EQ(solver->n_contacts(), layout.n_contacts());
}

// ---- ExtractionRequest validation -----------------------------------------

TEST(ExtractionRequestValidation, RejectsBadOptions) {
  EXPECT_NO_THROW(validate(ExtractionRequest{}));
  EXPECT_THROW(validate({.moment_order = -1}), std::invalid_argument);
  // (0, 1] thresholds are rejected, not silently ignored.
  EXPECT_THROW(validate({.threshold_sparsity_multiple = 0.5}), std::invalid_argument);
  EXPECT_THROW(validate({.threshold_sparsity_multiple = 1.0}), std::invalid_argument);
  EXPECT_THROW(validate({.lowrank = {.sigma_rel_tol = 0.0}}), std::invalid_argument);
  EXPECT_THROW(validate({.lowrank = {.sigma_rel_tol = 2.0}}), std::invalid_argument);
  EXPECT_THROW(validate({.lowrank = {.max_rank = 0}}), std::invalid_argument);
  EXPECT_THROW(validate({.lowrank = {.u_sigma_rel_tol = -1.0}}), std::invalid_argument);
  const Layout layout = regular_grid_layout(4);
  const auto solver = make_solver(SolverKind::kSurface, layout, tiny_stack());
  const Extractor engine(*solver, layout);
  EXPECT_THROW(engine.extract({.moment_order = -3}), std::invalid_argument);
  EXPECT_EQ(solver->solve_count(), 0);  // rejected before any solve
}

TEST(ExtractionRequestValidation, MismatchedSolverAndLayoutRejected) {
  const Layout small = regular_grid_layout(4);
  const Layout big = regular_grid_layout(8);
  const auto solver = make_solver(SolverKind::kSurface, small, tiny_stack());
  EXPECT_THROW(Extractor(*solver, big), std::invalid_argument);
}

// ---- Extractor pipeline ----------------------------------------------------

TEST(ExtractorPipeline, ReportCarriesPhasesAndMetrics) {
  const Layout layout = regular_grid_layout(8);
  const auto solver = make_solver(SolverKind::kSurface, layout, paper_stack());
  std::vector<std::string> seen;
  const ExtractionResult result = Extractor(*solver, layout).extract(
      {.threshold_sparsity_multiple = 4.0,
       .progress = [&](const std::string& phase, double) { seen.push_back(phase); }});
  const ExtractionReport& report = result.report;
  EXPECT_EQ(report.n, layout.n_contacts());
  EXPECT_EQ(report.solves, result.model.solves_used());
  EXPECT_GT(report.solves, 0);
  EXPECT_GT(report.seconds, 0.0);
  EXPECT_DOUBLE_EQ(report.gw_sparsity, result.model.gw_sparsity_factor());
  EXPECT_DOUBLE_EQ(report.q_sparsity, result.model.q_sparsity_factor());
  EXPECT_FALSE(report.from_cache);
  // Low-rank phases + threshold, in order, mirrored to the callback.
  ASSERT_EQ(report.phases.size(), 4u);
  EXPECT_EQ(report.phases[0].phase, "row-basis");
  EXPECT_EQ(report.phases[1].phase, "fine-to-coarse");
  EXPECT_EQ(report.phases[2].phase, "gw-fill");
  EXPECT_EQ(report.phases[3].phase, "threshold");
  ASSERT_EQ(seen.size(), report.phases.size());
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], report.phases[i].phase);
  EXPECT_NE(report.summary().find("solves"), std::string::npos);
}

TEST(ExtractorPipeline, SharedTreeServesRepeatedRequests) {
  const Layout layout = regular_grid_layout(8);
  const auto solver = make_solver(SolverKind::kSurface, layout, paper_stack());
  const Extractor engine(*solver, layout);
  EXPECT_GE(engine.tree_build_seconds(), 0.0);
  const ExtractionResult wavelet = engine.extract({.method = SparsifyMethod::kWavelet});
  const ExtractionResult lowrank = engine.extract({.method = SparsifyMethod::kLowRank});
  EXPECT_EQ(wavelet.model.q().rows(), lowrank.model.q().rows());
  // A borrowed tree gives the same models as an owned one.
  const QuadTree tree(layout);
  const ExtractionResult borrowed = Extractor(*solver, tree).extract(
      {.method = SparsifyMethod::kWavelet});
  EXPECT_EQ((borrowed.model.gw().to_dense() - wavelet.model.gw().to_dense()).max_abs(), 0.0);
}

TEST(ExtractorPipeline, RoundingLevelGramBlockDoesNotStallRowBasis) {
  // sigma_top = 1.3143575396148699 on the 8 x 8 layout leaves one row-basis
  // right-hand-side block at rounding level, so its block-CG Gram blocks
  // are ~1e-29. eig_sym must still diagonalize them (its convergence test
  // is relative to ||A||); otherwise the Gram pseudo-inverse degrades to
  // the diagonal's inverse, block CG diverges, and the extraction runs the
  // fallback chain for thousands of iterations.
  const Layout layout = regular_grid_layout(8, 2.0);
  const auto solver =
      make_solver(SolverKind::kSurface, layout, paper_stack(40.0, 0.5, 1.3143575396148699));
  const ExtractionResult r = Extractor(*solver, layout).extract(
      {.method = SparsifyMethod::kLowRank, .threshold_sparsity_multiple = 6.0});
  EXPECT_EQ(r.report.solves, 152);
  for (const PhaseTiming& p : r.report.phases) {
    EXPECT_TRUE(p.converged) << p.phase;
    EXPECT_EQ(p.retries, 0) << p.phase;
    EXPECT_EQ(p.fallback_columns, 0) << p.phase;
  }
}

// ---- ModelCache ------------------------------------------------------------

TEST(ModelCacheTest, HitConsumesZeroSolvesAndMatchesBitExactly) {
  const Layout layout = regular_grid_layout(8);
  const SubstrateStack stack = paper_stack();
  const auto solver = make_solver(SolverKind::kSurface, layout, stack);
  ModelCache cache;
  const ExtractionRequest request{.threshold_sparsity_multiple = 4.0};

  EXPECT_FALSE(cache.contains(*solver, layout, stack, request));
  const ExtractionResult miss = cache.get_or_extract(*solver, layout, stack, request);
  EXPECT_FALSE(miss.report.from_cache);
  EXPECT_GT(miss.report.solves, 0);
  EXPECT_TRUE(cache.contains(*solver, layout, stack, request));

  const long solves_before = solver->solve_count();
  const ExtractionResult hit = cache.get_or_extract(*solver, layout, stack, request);
  EXPECT_EQ(solver->solve_count(), solves_before);  // zero black-box solves
  EXPECT_TRUE(hit.report.from_cache);
  EXPECT_EQ(hit.report.solves, 0);
  EXPECT_EQ((hit.model.q().to_dense() - miss.model.q().to_dense()).max_abs(), 0.0);
  EXPECT_EQ((hit.model.gw().to_dense() - miss.model.gw().to_dense()).max_abs(), 0.0);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ModelCacheTest, DifferentRequestsAndSolversGetDifferentKeys) {
  const Layout layout = regular_grid_layout(4);
  const SubstrateStack stack = tiny_stack();
  const ExtractionRequest a{};
  // One request per hashed request field, each differing from the default
  // in that field alone: every one must key apart from it.
  const ExtractionRequest variants[] = {
      {.method = SparsifyMethod::kWavelet},
      {.moment_order = 3},
      {.lowrank = {.sigma_rel_tol = 1e-3}},
      {.lowrank = {.max_rank = 5}},
      {.lowrank = {.u_sigma_rel_tol = 1e-3}},
      {.lowrank = {.seed = 999}},
      {.threshold_sparsity_multiple = 6.0},
  };
  for (std::size_t i = 0; i < std::size(variants); ++i)
    EXPECT_NE(model_cache_key(layout, stack, a), model_cache_key(layout, stack, variants[i]))
        << "variant " << i;
  EXPECT_NE(model_cache_key(layout, stack, a, "surface"),
            model_cache_key(layout, stack, a, "fd"));
  // Same solver kind, different construction options: cache_tag() keys them
  // apart (different grid spacing / wells discretize a different G).
  const auto fd_coarse = make_solver(SolverKind::kFd, layout, stack);
  const auto fd_fine = make_solver(SolverKind::kFd, layout, stack, {.fd = {.grid_h = 1.0}});
  const auto fd_paper_ghost =
      make_solver(SolverKind::kFd, layout, stack, {.fd = {.ghost_half_spacing = false}});
  EXPECT_EQ(fd_coarse->name(), fd_fine->name());
  EXPECT_NE(fd_coarse->cache_tag(), fd_fine->cache_tag());
  EXPECT_NE(fd_coarse->cache_tag(), fd_paper_ghost->cache_tag());
  // ... and so does the preconditioner alone.
  const auto fd_iccg = make_solver(SolverKind::kFd, layout, stack,
                                   {.fd = {.precond = FdPreconditioner::kIncompleteCholesky}});
  EXPECT_NE(fd_coarse->cache_tag(), fd_iccg->cache_tag());
  EXPECT_EQ(fd_coarse->cache_tag(),
            make_solver(SolverKind::kFd, layout, stack)->cache_tag());
  // Same content, fresh objects: equal keys (the hash is content-based).
  EXPECT_EQ(model_cache_key(regular_grid_layout(4), tiny_stack(), ExtractionRequest{}),
            model_cache_key(layout, stack, a));
  // Progress callbacks are observational and must not affect the key.
  ExtractionRequest with_progress{};
  with_progress.progress = [](const std::string&, double) {};
  EXPECT_EQ(model_cache_key(layout, stack, with_progress), model_cache_key(layout, stack, a));
}

TEST(ModelCacheTest, PersistsAcrossCacheInstancesThroughSaveLoad) {
  const std::string dir = "/tmp/subspar_cache_test_dir";
  std::filesystem::remove_all(dir);
  const Layout layout = regular_grid_layout(8);
  const SubstrateStack stack = paper_stack();
  const auto solver = make_solver(SolverKind::kSurface, layout, stack);
  const ExtractionRequest request{.threshold_sparsity_multiple = 4.0};

  ModelCache warm(dir);
  const ExtractionResult original = warm.get_or_extract(*solver, layout, stack, request);
  EXPECT_EQ(warm.stats().misses, 1u);

  // A second cache over the same directory (a "new process") serves the
  // request from disk: zero solves, bit-exact apply through the io layer.
  ModelCache cold(dir);
  const long solves_before = solver->solve_count();
  const ExtractionResult loaded = cold.get_or_extract(*solver, layout, stack, request);
  EXPECT_EQ(solver->solve_count(), solves_before);
  EXPECT_TRUE(loaded.report.from_cache);
  EXPECT_EQ(cold.stats().disk_loads, 1u);
  EXPECT_EQ(loaded.model.solves_used(), original.model.solves_used());
  Rng rng(17);
  Vector v(layout.n_contacts());
  for (auto& x : v) x = rng.normal();
  EXPECT_EQ(norm2(loaded.model.apply(v) - original.model.apply(v)), 0.0);

  // A corrupted persisted file falls back to a fresh extraction.
  ModelCache rescued(dir);
  const std::string key = model_cache_key(layout, stack, request, solver->cache_tag());
  const std::string path = dir + "/model-" + key + ".txt";
  ASSERT_TRUE(std::filesystem::exists(path));
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("subspar-model v1\ngarbage", f);
    std::fclose(f);
  }
  const ExtractionResult refreshed = rescued.get_or_extract(*solver, layout, stack, request);
  EXPECT_FALSE(refreshed.report.from_cache);
  EXPECT_EQ(norm2(refreshed.model.apply(v) - original.model.apply(v)), 0.0);

  // A well-formed persisted file of the wrong dimension (renamed/copied
  // into the cache dir) is also treated as corrupt, not served.
  {
    SparseBuilder qb(2, 2), gb(2, 2);
    qb.add(0, 0, 1.0);
    qb.add(1, 1, 1.0);
    gb.add(0, 0, 2.0);
    gb.add(1, 1, 3.0);
    save_model(path, SparsifiedModel(SparseMatrix(qb), SparseMatrix(gb), 2, 0.1));
  }
  ModelCache resized(dir);
  const ExtractionResult resized_result = resized.get_or_extract(*solver, layout, stack, request);
  EXPECT_FALSE(resized_result.report.from_cache);
  EXPECT_EQ(resized_result.model.q().rows(), layout.n_contacts());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace subspar
