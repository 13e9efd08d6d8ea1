#include "lowrank/extract.hpp"

#include "util/check.hpp"

namespace subspar {

SparseMatrix lowrank_fill_gw(const RowBasisRep& rep, const LowRankBasis& basis) {
  const QuadTree& tree = rep.tree();
  const std::size_t n = basis.n();
  SymmetricEntryAccumulator acc(n);

  // Responses of one square's column block, one contact vector per column.
  // A walk from s writes only the contacts of local(s) and interactive(s);
  // those are zeroed again once its entries are recorded.
  std::vector<Vector> u;
  const auto respond = [&](const SquareId& s, const Matrix& x) {
    while (u.size() < x.cols()) u.emplace_back(n);
    rep.add_subtree_response(s, x, u);
    return std::span<const Vector>(u.data(), x.cols());
  };
  const auto clear = [&](const SquareId& s) {
    auto region = tree.local(s);
    for (const SquareId& q : tree.interactive(s)) region.push_back(q);
    for (const SquareId& q : region)
      for (const std::size_t id : tree.contacts_in(q))
        for (Vector& uc : u) uc[id] = 0.0;
  };

  for (int lev = basis.root_level(); lev <= tree.max_level(); ++lev) {
    for (const SquareId& s : tree.squares(lev)) {
      const SquareBasis& sb = basis.square_basis(s);
      const auto& wcols = basis.w_columns(s);
      // Level-2 squares walk [T | U]: their leftover U columns are dense
      // rows/columns of G_w.
      std::vector<std::size_t> ucols;
      if (lev == basis.root_level())
        for (const std::size_t k : basis.root_columns())
          if (basis.columns()[k].square == s) ucols.push_back(k);
      if (wcols.empty() && ucols.empty()) continue;
      const auto resp = respond(s, ucols.empty() ? sb.w : Matrix::hcat(sb.w, sb.v));
      // T columns: entries against T vectors of non-well-separated squares
      // at the same or finer levels (coarser-level entries from symmetry).
      record_local_entries(basis, s, wcols, resp.first(wcols.size()), acc);
      for (std::size_t c = 0; c < ucols.size(); ++c)
        for (std::size_t j = 0; j < n; ++j)
          acc.record(j, ucols[c], basis.column_dot(j, resp[wcols.size() + c]));
      clear(s);
    }
  }
  return acc.build();
}

}  // namespace subspar
