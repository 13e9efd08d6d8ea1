// Ablation: the low-rank method's two design knobs (docs/ARCHITECTURE.md,
// "Low-rank row-basis knobs") —
// the row-basis singular-value tolerance and the rank cap — swept on the
// alternating-size example where accuracy is hardest.
//
// This study backs the library default (tol 1e-4, cap 6): the paper's
// nominal 1/100 tolerance truncates the row basis before the rank cap is
// reached, costing ~30x in max error for the same number of solves at cap 6.
#include "common.hpp"

using namespace subspar;
using namespace subspar::bench;

int main(int argc, char** argv) {
  (void)full_mode(argc, argv);
  const Layout layout = alternating_size_layout(16);  // n = 256 keeps the sweep cheap
  const auto solver = make_solver(SolverKind::kSurface, layout, bench_stack());
  const Extractor engine(*solver, layout);
  const Matrix g = extract_dense(*solver);
  std::printf("Ablation — row-basis truncation on the alternating-size layout (n = %zu)\n\n",
              layout.n_contacts());

  Table table({"sigma tol", "rank cap", "max rel err", "frac > 10%", "sparsity", "solves"});
  for (const double tol : {1e-2, 1e-3, 1e-4, 1e-6}) {
    for (const std::size_t cap : {std::size_t{4}, std::size_t{6}, std::size_t{8}}) {
      const ExtractionResult r =
          engine.extract({.lowrank = {.sigma_rel_tol = tol, .max_rank = cap}});
      const ErrorStats err = reconstruction_error(r.model.q(), r.model.gw(), g);
      table.add_row({Table::num(tol, 1), std::to_string(cap),
                     Table::pct(err.max_rel_error, 1), Table::pct(err.frac_above_10pct, 2),
                     Table::fixed(r.report.gw_sparsity, 2), std::to_string(r.report.solves)});
    }
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("expected shape: the paper's nominal 1e-2 tolerance truncates the\n"
              "row basis early and costs ~20x in max error; accuracy saturates\n"
              "once the tolerance stops binding before the cap (tol <= 1e-3).\n"
              "Tighter tolerances buy nothing further but cost extra solves.\n");
  return 0;
}
