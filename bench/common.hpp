// Shared infrastructure for the benchmark harnesses: the paper's evaluation
// examples at reproducible scales, and the evaluation loop that produces the
// sparsity / accuracy / solve-reduction rows of Tables 3.1, 4.1-4.3.
//
// Every bench accepts --full to run at the paper's sizes; the default sizes
// are scaled for a single-core run of the whole suite (documented per table
// in docs/REPRODUCTION.md). All randomness is seeded: reruns are
// bit-identical.
#pragma once

#include <cstdio>
#include <cstring>
#include <string>

#include "subspar/subspar.hpp"

namespace subspar::bench {

inline bool full_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--full") == 0) return true;
  return false;
}

/// The §3.7 substrate: two layers (1, 100) plus the thin resistive layer
/// that emulates a floating backplane; dimensions 128 x 128 x 40.
inline SubstrateStack bench_stack() { return paper_stack(40.0, 0.5, 1.0); }

/// FD-friendly variant: layer boundaries land on grid-plane gaps at h = 2.
inline SubstrateStack bench_stack_fd() {
  return SubstrateStack({{2.0, 1.0}, {36.0, 100.0}, {2.0, 0.1}}, Backplane::kGrounded);
}

// ---- the paper's example layouts (surface is 128 physical units across;
// panel size adjusts so that panel grids stay power-of-two).

inline Layout example_regular(bool full) {  // Fig. 3-6; Ex. 1a / Ch.4 Ex. 1
  return regular_grid_layout(32, full ? 1.0 : 1.0);  // n = 1024 (paper size)
}
inline Layout example_regular_fd(bool full) {  // Ex. 1b (finite-difference solver)
  return regular_grid_layout(full ? 32 : 16, full ? 1.0 : 2.0);  // n = 256 default
}
inline Layout example_irregular(bool /*full*/) {  // Fig. 3-7; Ex. 2
  return irregular_layout(32, 0.55, 20240602, 1.0);  // n ~ 560
}
inline Layout example_alternating(bool /*full*/) {  // Fig. 3-8; Ch.3 Ex.3 / Ch.4 Ex.2
  return alternating_size_layout(32, 1.0);  // n = 1024 (paper size)
}
inline Layout example_shapes(bool /*full*/) {  // Fig. 4-8; Ch.4 Ex.3
  return mixed_shapes_layout(32, 4257, 1.0);  // n ~ 850
}
inline Layout example_4_large_alternating(bool full) {  // Table 4.3 Ex. 4
  return alternating_size_layout(full ? 64 : 32, full ? 0.5 : 1.0);  // 4096 / 1024
}
inline Layout example_5_large_mixed(bool full) {  // Fig. 4-10; Table 4.3 Ex. 5
  return large_mixed_layout(full ? 64 : 32, 0.8, 31415, full ? 0.5 : 1.0);  // ~11k / ~3k
}

/// One evaluated sparsification run.
struct MethodRow {
  double sparsity = 0.0;       ///< n^2 / nnz(G_w), unthresholded
  double q_sparsity = 0.0;
  long solves = 0;
  double solve_reduction = 0.0;
  ErrorStats error;            ///< unthresholded accuracy
  double threshold_sparsity = 0.0;
  ErrorStats threshold_error;  ///< after ~6x thresholding
  double seconds = 0.0;
};

struct EvaluatedExample {
  std::string name;
  std::size_t n = 0;
  MethodRow wavelet;
  MethodRow lowrank;
};

/// Error columns of the exact G used for scoring (all columns when
/// sample_fraction == 1, a deterministic sample otherwise — Table 4.3).
struct ExactColumns {
  Matrix g;
  std::vector<std::size_t> ids;
};

inline ExactColumns exact_columns(const SubstrateSolver& solver, double sample_fraction) {
  ExactColumns out;
  out.ids = sample_columns(solver.n_contacts(), sample_fraction);
  out.g = extract_columns(solver, out.ids);
  return out;
}

/// One unthresholded extraction through the public pipeline, scored plain
/// and after ~threshold_multiple x thresholding (both tables come from the
/// same O(log n) solves, so the threshold is applied here, not re-requested).
inline MethodRow run_request(const SubstrateSolver& solver, const QuadTree& tree,
                             const ExactColumns& exact, double threshold_multiple,
                             const ExtractionRequest& request) {
  MethodRow row;
  solver.reset_solve_count();
  const ExtractionResult extracted = Extractor(solver, tree).extract(request);
  const SparsifiedModel& model = extracted.model;
  row.seconds = extracted.report.seconds;
  row.solves = extracted.report.solves;
  row.solve_reduction = extracted.report.solve_reduction;
  row.sparsity = extracted.report.gw_sparsity;
  row.q_sparsity = extracted.report.q_sparsity;
  row.error = reconstruction_error(model.q(), model.gw(), exact.g, exact.ids);
  const SparseMatrix gwt = threshold_to_nnz(
      model.gw(),
      static_cast<std::size_t>(static_cast<double>(model.gw().nnz()) / threshold_multiple));
  row.threshold_sparsity = gwt.sparsity_factor();
  row.threshold_error = reconstruction_error(model.q(), gwt, exact.g, exact.ids);
  return row;
}

inline MethodRow run_wavelet(const SubstrateSolver& solver, const QuadTree& tree,
                             const ExactColumns& exact, double threshold_multiple) {
  return run_request(solver, tree, exact, threshold_multiple,
                     {.method = SparsifyMethod::kWavelet});
}

inline MethodRow run_lowrank(const SubstrateSolver& solver, const QuadTree& tree,
                             const ExactColumns& exact, double threshold_multiple) {
  return run_request(solver, tree, exact, threshold_multiple,
                     {.method = SparsifyMethod::kLowRank});
}

}  // namespace subspar::bench
