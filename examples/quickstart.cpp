// Quickstart: extract a sparse substrate-coupling model and use it —
// entirely through the public API (include/subspar/subspar.hpp).
//
// Builds the paper's layered substrate, a 16x16 grid of contacts, runs the
// low-rank sparsification (Chapter 4) against the eigenfunction black-box
// solver (Chapter 2) through the ExtractionRequest -> ExtractionResult
// pipeline, checks the sparse model against exact solves, and shows the
// ModelCache serving a repeat request for zero additional solves.
#include <cstdio>

#include "subspar/subspar.hpp"

using namespace subspar;

int main() {
  // 1. Describe the substrate: layered resistive stack (sigma 1 / 100 /
  //    0.1 emulating a floating backplane) and a contact layout.
  const SubstrateStack stack = paper_stack(/*depth=*/40.0);
  const Layout layout = regular_grid_layout(/*contacts_per_side=*/16);
  std::printf("layout: %zu contacts on a %zux%zu panel grid\n", layout.n_contacts(),
              layout.panels_x(), layout.panels_y());

  // 2. Any black-box solver works; the registry names the discretizations
  //    (here the eigenfunction/DCT solver) behind one interface.
  const auto solver = make_solver(SolverKind::kSurface, layout, stack);

  // 3. Sparsify through the pipeline: the Extractor owns the quadtree build,
  //    validation, and method dispatch; the result carries the model plus a
  //    structured report of what building it cost.
  const Extractor engine(*solver, layout);
  const ExtractionRequest request{.method = SparsifyMethod::kLowRank,
                                  .threshold_sparsity_multiple = 6.0};
  const ExtractionResult extracted = engine.extract(request);
  const SparsifiedModel& model = extracted.model;
  std::printf("model: %s\n", model.summary().c_str());

  //    The report also records every recovery the pipeline took: solver
  //    restarts, direct-solve fallbacks, and quarantined cache files. A
  //    clean run prints nothing here; under fault injection (SUBSPAR_FAULT)
  //    each degradation is listed.
  for (const auto& w : extracted.report.warnings)
    std::printf("warning: %s\n", w.c_str());
  for (const auto& f : extracted.report.fallbacks)
    std::printf("fallback: %s\n", f.c_str());

  // 4. Use it: currents from voltages via three sparse products, validated
  //    against direct black-box solves.
  Rng rng(2024);
  Vector voltages(layout.n_contacts());
  for (auto& v : voltages) v = rng.uniform(-0.5, 0.5);
  const Vector fast = model.apply(voltages);
  const Vector exact = solver->solve(voltages);
  const double rel_err = norm2(fast - exact) / norm2(exact);
  std::printf("apply check: |fast - exact| / |exact| = %.2e\n", rel_err);
  // Hard gate (CI runs this under fault injection too): the sparse model must
  // stay within the deterministic route's error bound even when the fallback
  // chain had to recover injected faults along the way.
  if (!(rel_err < 1e-2)) {
    std::printf("FAIL: apply error %.2e exceeds the 1e-2 bound\n", rel_err);
    return 1;
  }
  std::printf("sample currents (contact 0, %zu): fast %.6f / %.6f, exact %.6f / %.6f\n",
              layout.n_contacts() / 2, fast[0], fast[layout.n_contacts() / 2], exact[0],
              exact[layout.n_contacts() / 2]);

  // 5. Reuse it: an identical request through the ModelCache is a lookup,
  //    not a re-extraction — zero additional black-box solves.
  ModelCache cache;
  cache.get_or_extract(*solver, layout, stack, request);  // miss: extracts once
  const long solves_before_hit = solver->solve_count();
  const ExtractionResult again = cache.get_or_extract(*solver, layout, stack, request);
  std::printf("cache: repeat request consumed %ld solves (hit: %s)\n",
              solver->solve_count() - solves_before_hit,
              again.report.from_cache ? "yes" : "no");
  return 0;
}
