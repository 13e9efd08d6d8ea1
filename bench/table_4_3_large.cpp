// Reproduces Table 4.3: the low-rank method on larger examples, scored on a
// 10% column sample of the exact G.
//
// Paper rows (sparsity / max rel err / thresholded sparsity / frac > 10% /
// solve reduction):
//   Ex. 4: 64x64 alternating grid, n = 4096:   10 / 6.3% /  62 / 1.7% /  8.7
//   Ex. 5: mixed fields,         n = 10240:    21 / 5.3% / 129 / 3.2% / 18
// Expected shape: sparsity, thresholded sparsity and solve reduction all
// GROW with n (the representation is O(n log n)), with a few percent of
// sampled entries off by more than 10%.
//
// Default runs scaled sizes (n ~ 1024 and ~3000); --full runs the paper's;
// --smoke runs only the smallest (anchor) example — the CI configuration.
#include "common.hpp"

using namespace subspar;
using namespace subspar::bench;

namespace {

bool smoke_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) return true;
  return false;
}

void run(const char* name, const char* paper, const Layout& layout, Table& table) {
  const auto solver = make_solver(SolverKind::kSurface, layout, bench_stack());
  const QuadTree tree(layout);
  const ExactColumns exact = exact_columns(*solver, 0.10);  // 10% sample (§4.6)
  const MethodRow lr = run_lowrank(*solver, tree, exact, 6.0);
  table.add_row({name, std::to_string(layout.n_contacts()), Table::fixed(lr.sparsity, 1),
                 Table::pct(lr.error.max_rel_error_significant, 1),
                 Table::fixed(lr.threshold_sparsity, 1),
                 Table::pct(lr.threshold_error.frac_above_10pct, 1),
                 Table::fixed(lr.solve_reduction, 1), std::to_string(lr.solves),
                 Table::fixed(lr.q_sparsity, 1), paper});
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = full_mode(argc, argv);
  const bool smoke = smoke_mode(argc, argv);
  std::printf("Table 4.3 — low-rank method on larger examples (10%% column sample)\n");
  if (smoke) std::printf("[--smoke: anchor example only]\n");
  else if (!full) std::printf("[scaled sizes; pass --full for the paper's n = 4096 / 10240]\n");
  std::printf("\n");
  Table table({"example", "n", "sparsity", "max rel err", "thresh. sparsity", "frac > 10%",
               "solve red.", "solves LR", "sparsity(Q)", "paper (sp/err/thsp/frac/sr)"});
  // A smaller anchor point demonstrates the growth trend within one run.
  run("anchor: regular", "-", example_regular(full), table);
  if (!smoke) {
    run("Ex. 4 alternating", "10/6.3%/62/1.7%/8.7", example_4_large_alternating(full), table);
    run("Ex. 5 mixed fields", "21/5.3%/129/3.2%/18", example_5_large_mixed(full), table);
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("expected shape: sparsity and solve reduction grow with n\n"
              "(O(n log n) representation; §4.6, §5.1).\n");
  return 0;
}
