#include "wavelet/extract.hpp"

#include <map>
#include <utility>

namespace subspar {

BlockResponses solve_blocks(const SubstrateSolver& solver, std::span<const SolveBlock> blocks,
                            Batching batching) {
  // The (block, column) members of each right-hand side, keyed in batch
  // order: block-major when direct, (k, support phase, owner position) when
  // combined.
  constexpr std::size_t kGroups = 36;  // 3 x 3 support phases x 2 x 2 owner positions
  std::map<std::size_t, std::vector<std::pair<std::size_t, std::size_t>>> members;
  BlockResponses out;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const SolveBlock& blk = blocks[b];
    const int position = blk.owner == blk.support ? 0 : (blk.owner.ix % 2) * 2 + blk.owner.iy % 2;
    const std::size_t group = ((blk.support.ix % 3) * 3 + blk.support.iy % 3) * 4 + position;
    for (std::size_t k = 0; k < blk.x.cols(); ++k)
      members[batching == Batching::kDirect ? members.size() : k * kGroups + group]
          .emplace_back(b, k);
    out.col.emplace_back(blk.x.cols());
  }
  if (members.empty()) return out;

  // A direct right-hand side is its block column as it stands; a combined
  // one sums its members' columns onto zeros (eq. 3.24). The members'
  // supports are disjoint, so either way each entry is written once.
  Matrix rhs(solver.n_contacts(), members.size());
  std::size_t c = 0;
  for (const auto& [key, group] : members) {
    for (const auto& [b, k] : group) {
      out.col[b][k] = c;
      for (std::size_t i = 0; i < blocks[b].rows.size(); ++i) {
        double& e = rhs(blocks[b].rows[i], c);
        e = batching == Batching::kDirect ? blocks[b].x(i, k) : e + blocks[b].x(i, k);
      }
    }
    ++c;
  }
  const Matrix u = solver.solve_many(rhs);
  for (c = 0; c < u.cols(); ++c) out.response.push_back(u.col(c));
  return out;
}

WaveletExtraction wavelet_extract_combined(const SubstrateSolver& solver,
                                           const TransformBasis& basis) {
  const QuadTree& tree = basis.tree();
  const std::size_t n = basis.n();
  const long before = solver.solve_count();
  SymmetricEntryAccumulator acc(n);

  // ---- root-level leftovers: one solve per V column gives a full row and
  // column of G_w (expressions 3.21-3.23). Blocks in root_columns() order,
  // so response c answers root column c.
  const std::vector<std::size_t>& root = basis.root_columns();
  std::vector<SolveBlock> blocks;
  for (const std::size_t j : root) {
    const BasisColumn& col = basis.columns()[j];
    const SquareBasis& sb = basis.square_basis(col.square);
    if (col.m == 0) blocks.push_back({col.square, col.square, sb.contacts, sb.v});
  }
  const BlockResponses root_resp = solve_blocks(solver, blocks, Batching::kDirect);
  for (std::size_t c = 0; c < root.size(); ++c)
    for (std::size_t j = 0; j < n; ++j)
      acc.record(j, root[c], basis.column_dot(j, root_resp.response[c]));

  // ---- W blocks: one combined batch per level (eq. 3.24). Each W column's
  // response is read at every basis vector whose square is not
  // well-separated from it (levels >= lev; the coarser-level entries come
  // from symmetry).
  for (int lev = basis.root_level(); lev <= tree.max_level(); ++lev) {
    blocks.clear();
    for (const SquareId& s : tree.squares(lev)) {
      const SquareBasis& sb = basis.square_basis(s);
      blocks.push_back({s, s, sb.contacts, sb.w});
    }
    const BlockResponses resp = solve_blocks(solver, blocks, Batching::kCombined);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      const SquareId& s = blocks[b].support;
      const std::vector<std::size_t>& wcols = basis.w_columns(s);
      for (std::size_t k = 0; k < wcols.size(); ++k)
        record_local_entries(basis, s, {&wcols[k], 1}, {&resp.response[resp.col[b][k]], 1}, acc);
    }
  }

  WaveletExtraction out;
  out.gws = acc.build();
  out.solves = solver.solve_count() - before;
  return out;
}

}  // namespace subspar
