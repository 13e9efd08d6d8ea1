#include "wavelet/extract.hpp"

#include "util/check.hpp"

namespace subspar {

Matrix transform_congruence(const SparseMatrix& q, const Matrix& g) {
  const std::size_t n = g.rows();
  SUBSPAR_REQUIRE(q.rows() == n && q.cols() == n && g.cols() == n);
  // GQ column by column (Q columns are sparse), then Q' (GQ).
  Matrix gq(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    Vector acc(n);
    Vector ej(n);
    ej[j] = 1.0;
    const Vector qj = q.apply(ej);  // dense column of Q
    for (std::size_t k = 0; k < n; ++k) {
      if (qj[k] == 0.0) continue;
      const double w = qj[k];
      for (std::size_t i = 0; i < n; ++i) acc[i] += w * g(i, k);
    }
    gq.set_col(j, acc);
  }
  Matrix gw(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    const Vector col = gq.col(j);
    const Vector qtcol = q.apply_t(col);
    gw.set_col(j, qtcol);
  }
  return gw;
}

WaveletExtraction wavelet_extract_reference(const SubstrateSolver& solver,
                                            const TransformBasis& basis) {
  const long before = solver.solve_count();
  const Matrix g = extract_dense(solver);
  const Matrix gw = transform_congruence(basis.q(), g);
  WaveletExtraction out;
  out.gws = WaveletPattern(basis).mask(gw);
  out.solves = solver.solve_count() - before;
  return out;
}

WaveletExtraction wavelet_extract_combined(const SubstrateSolver& solver,
                                           const TransformBasis& basis) {
  const QuadTree& tree = basis.tree();
  const std::size_t n = basis.n();
  const long before = solver.solve_count();
  SymmetricEntryAccumulator acc(n);

  // ---- root-level leftovers: one solve per V column gives a full row and
  // column of G_w (expressions 3.21-3.23). The columns are independent, so
  // they go to the solver as one batch.
  const std::vector<std::size_t>& root = basis.root_columns();
  if (!root.empty()) {
    Matrix rhs(n, root.size());
    for (std::size_t c = 0; c < root.size(); ++c) rhs.set_col(c, basis.column_vector(root[c]));
    const Matrix u = solver.solve_many(rhs);
    for (std::size_t c = 0; c < root.size(); ++c) {
      const Vector uc = u.col(c);
      for (std::size_t j = 0; j < n; ++j) acc.record(j, root[c], basis.column_dot(j, uc));
    }
  }

  // ---- W blocks: combine basis vectors of squares >= 3 apart (eq. 3.24).
  // All (m, 3x3-phase) combined voltage vectors of one level are mutually
  // independent, so each level assembles them into one batch and rides the
  // blocked solve path; the per-theta entry extraction stays in the original
  // sequential order, which keeps results identical to the one-at-a-time
  // pipeline.
  for (int lev = basis.root_level(); lev <= tree.max_level(); ++lev) {
    const std::size_t max_m = basis.max_w_on_level(lev);
    struct ThetaGroup {
      std::size_t m = 0;              // W column index within each member
      std::vector<SquareId> members;  // constituent squares
    };
    std::vector<ThetaGroup> groups;
    std::vector<Vector> thetas;
    for (std::size_t m = 0; m < max_m; ++m) {
      for (int pa = 0; pa < 3; ++pa) {
        for (int pb = 0; pb < 3; ++pb) {
          // Gather this phase's constituent squares.
          std::vector<SquareId> members;
          Vector theta(n);
          for (const SquareId& s : tree.squares(lev)) {
            if (s.ix % 3 != pa || s.iy % 3 != pb) continue;
            const auto& wcols = basis.w_columns(s);
            if (m >= wcols.size()) continue;
            theta += basis.column_vector(wcols[m]);
            members.push_back(s);
          }
          if (members.empty()) continue;
          groups.push_back({m, std::move(members)});
          thetas.push_back(std::move(theta));
        }
      }
    }
    if (groups.empty()) continue;
    Matrix rhs(n, thetas.size());
    for (std::size_t c = 0; c < thetas.size(); ++c) rhs.set_col(c, thetas[c]);
    const Matrix resp = solver.solve_many(rhs);

    for (std::size_t g = 0; g < groups.size(); ++g) {
      const Vector u = resp.col(g);
      // Extract the response to each constituent at every basis vector
      // whose square is not well-separated from it (levels >= lev; the
      // coarser-level entries come from symmetry).
      for (const SquareId& s : groups[g].members) {
        const std::size_t col_idx = basis.w_columns(s)[groups[g].m];
        record_local_entries(basis, s, {&col_idx, 1}, {&u, 1}, acc);
      }
    }
  }

  WaveletExtraction out;
  out.gws = acc.build();
  out.solves = solver.solve_count() - before;
  return out;
}

}  // namespace subspar
