#include "subspar/extraction.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

#include "linalg/backend.hpp"
#include "linalg/robust.hpp"
#include "lowrank/extract.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"
#include "wavelet/basis.hpp"
#include "wavelet/extract.hpp"
#include "wavelet/pattern.hpp"

namespace subspar {
namespace {

// Phase-boundary guard: numerical garbage must surface as a typed error
// here, never as a silently wrong model downstream.
bool sparse_all_finite(const SparseMatrix& m) {
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t k = m.row_begin(i); k < m.row_end(i); ++k)
      if (!std::isfinite(m.value(k))) return false;
  return true;
}

}  // namespace

void validate(const ExtractionRequest& request) {
  SUBSPAR_REQUIRE(request.moment_order >= 0);
  // (0, 1] would be a silent no-op under the old facade; reject it.
  SUBSPAR_REQUIRE(request.threshold_sparsity_multiple == 0.0 ||
                  request.threshold_sparsity_multiple > 1.0);
  SUBSPAR_REQUIRE(request.lowrank.max_rank >= 1);
  SUBSPAR_REQUIRE(request.lowrank.sigma_rel_tol > 0.0 && request.lowrank.sigma_rel_tol <= 1.0);
  SUBSPAR_REQUIRE(request.lowrank.u_sigma_rel_tol > 0.0 &&
                  request.lowrank.u_sigma_rel_tol <= 1.0);
}

std::string ExtractionReport::summary() const {
  std::ostringstream out;
  out << "n = " << n << ", solves = " << solves << " (reduction " << solve_reduction
      << "x), sparsity(G_w) = " << gw_sparsity << ", sparsity(Q) = " << q_sparsity;
  if (!fallbacks.empty()) out << ", fallbacks = " << fallbacks.size();
  out << ", " << (from_cache ? "cache hit in " : "build = ") << seconds << " s";
  if (!phases.empty()) {
    out << " [";
    for (std::size_t i = 0; i < phases.size(); ++i) {
      out << (i ? ", " : "") << phases[i].phase << " " << phases[i].seconds << " s";
      if (phases[i].solves > 0) out << " / " << phases[i].solves << " solves";
    }
    out << "]";
  }
  return out.str();
}

Extractor::Extractor(const SubstrateSolver& solver, const Layout& layout, int max_level)
    : solver_(&solver) {
  SUBSPAR_REQUIRE(solver.n_contacts() == layout.n_contacts());
  Timer timer;
  owned_tree_ = std::make_unique<QuadTree>(layout, max_level);
  tree_ = owned_tree_.get();
  tree_seconds_ = timer.seconds();
}

Extractor::Extractor(const SubstrateSolver& solver, const QuadTree& tree)
    : solver_(&solver), tree_(&tree) {
  SUBSPAR_REQUIRE(solver.n_contacts() == tree.layout().n_contacts());
}

ExtractionResult Extractor::extract(const ExtractionRequest& request) const {
  validate(request);  // stays a plain std::invalid_argument, outside the wrap
  try {
    return extract_impl(request);
  } catch (const ExtractionException&) {
    throw;
  } catch (const CancelledError& e) {
    throw ExtractionException({ErrorCode::kCancelled, e.where(), e.what()});
  } catch (const DeadlineExceededError& e) {
    throw ExtractionException({ErrorCode::kDeadlineExceeded, e.where(), e.what()});
  } catch (const SolverConvergenceError& e) {
    throw ExtractionException({ErrorCode::kSolverNonConvergence, "solve", e.what()});
  } catch (const std::exception& e) {
    throw ExtractionException({ErrorCode::kInternal, "extract", e.what()});
  }
}

Status Extractor::try_extract(const ExtractionRequest& request,
                              std::optional<ExtractionResult>* out) const {
  SUBSPAR_REQUIRE(out != nullptr);
  out->reset();
  try {
    out->emplace(extract(request));
    return Status();
  } catch (const ExtractionException& e) {
    return Status(e.error());
  } catch (const std::invalid_argument& e) {
    return Status({ErrorCode::kInvalidRequest, "validate", e.what()});
  } catch (const std::exception& e) {
    return Status({ErrorCode::kInternal, "extract", e.what()});
  }
}

ExtractionResult Extractor::extract_impl(const ExtractionRequest& request) const {
  // Install the request's cancellation token for the whole pipeline: the
  // phase boundaries below, every solve batch (substrate/solver.cpp), and
  // the pcg_block loop all check it through the thread-local scope.
  const CancelScope cancel_scope(request.cancel.get());
  cancellation_point("extract-start");
  ExtractionReport report;
  report.backend = backend_name(active_backend());
  const long solves_before = solver_->solve_count();
  Timer total;
  Timer phase_timer;
  long phase_solves_mark = solves_before;
  SolverDiagnostics diag_mark = solver_->diagnostics();
  const auto phase_done = [&](const char* name) {
    cancellation_point(name);
    const double s = phase_timer.seconds();
    const long solves = solver_->solve_count() - phase_solves_mark;
    const SolverDiagnostics now = solver_->diagnostics();
    PhaseTiming pt;
    pt.phase = name;
    pt.seconds = s;
    pt.solves = solves;
    pt.iterations = now.iterations - diag_mark.iterations;
    const long hits = now.max_iteration_hits - diag_mark.max_iteration_hits;
    const long retries = now.restarts - diag_mark.restarts;
    const long tighter = now.tighter_restarts - diag_mark.tighter_restarts;
    const long direct = now.direct_columns - diag_mark.direct_columns;
    const long nonfinite = now.nonfinite_recoveries - diag_mark.nonfinite_recoveries;
    pt.converged = hits == 0;
    pt.retries = retries;
    pt.fallback_columns = direct;
    if (hits + retries + direct + nonfinite > 0) pt.worst_residual = now.worst_residual;
    report.phases.push_back(pt);
    if (hits > 0) {
      std::ostringstream w;
      w << "phase '" << name << "': " << hits
        << " iterative attempt(s) hit max_iterations; recovered by the fallback chain";
      std::fprintf(stderr, "subspar: warning: %s\n", w.str().c_str());
      report.warnings.push_back(w.str());
    }
    if (retries + direct + nonfinite > 0) {
      std::ostringstream f;
      f << "solver: phase '" << name << "': " << retries << " restart(s) (" << tighter
        << " with a tighter preconditioner), " << direct << " direct-solve column(s), "
        << nonfinite << " non-finite recovery(ies); worst verified residual "
        << now.worst_residual;
      report.fallbacks.push_back(f.str());
    }
    diag_mark = now;
    if (request.progress) request.progress(name, s);
    phase_timer.reset();
    phase_solves_mark = solver_->solve_count();
  };

  SparseMatrix q, gw;
  if (request.method == SparsifyMethod::kWavelet) {
    const WaveletBasis basis(*tree_, request.moment_order);
    phase_done("wavelet-basis");
    WaveletExtraction ex = wavelet_extract_combined(*solver_, basis);
    q = basis.q();
    gw = std::move(ex.gws);
    phase_done("combine-extract");
  } else {
    const RowBasisRep rep(*solver_, *tree_, request.lowrank);
    phase_done("row-basis");
    const LowRankBasis basis(rep);
    phase_done("fine-to-coarse");
    gw = lowrank_fill_gw(rep, basis);
    q = basis.q();
    phase_done("gw-fill");
  }
  if (!sparse_all_finite(q) || !sparse_all_finite(gw))
    throw ExtractionException(
        {ErrorCode::kNumericalBreakdown, "assemble",
         "non-finite entries in the assembled Q/G_w factors (numerical garbage "
         "crossed a phase boundary)"});
  if (request.threshold_sparsity_multiple > 1.0) {
    const auto target = static_cast<std::size_t>(static_cast<double>(gw.nnz()) /
                                                 request.threshold_sparsity_multiple);
    gw = threshold_to_nnz(gw, target);
    phase_done("threshold");
  }

  const long solves = solver_->solve_count() - solves_before;
  const double seconds = total.seconds();
  SparsifiedModel model(std::move(q), std::move(gw), solves, seconds);
  report.n = model.q().rows();
  report.solves = solves;
  report.seconds = seconds;
  report.gw_sparsity = model.gw_sparsity_factor();
  report.q_sparsity = model.q_sparsity_factor();
  report.solve_reduction = model.solve_reduction_factor();
  return ExtractionResult{std::move(model), std::move(report)};
}

}  // namespace subspar
