// Phase 1 of the low-rank method: the multilevel row-basis representation
// (§4.3), built coarse-to-fine from O(log n) black-box solves.
//
// Per square s the interaction G_{I_s, s} with its interactive region is
// numerically low-rank (Fig. 4-3). A row basis V_s (<= 6 columns) is
// recovered from the SVD of responses at s to random sample vectors placed
// in the squares of I_s (§4.3.3), and the responses (G_{P_s, s} V_s) to the
// basis itself are recorded over the local-plus-interactive region P_s.
// Responses on finer levels are never solved directly: a voltage with
// support in s splits into its projection onto the parent row basis
// (answered by the parent-level representation) and an orthogonal remainder
// in (W_p), whose responses combine-solve safely (eqs. 4.22-4.24, Fig. 4-7).
// The finest level stores the exact-local blocks G^(f)_{L_s, s} (eq. 4.26).
//
// The resulting representation applies G in O(n log n) (§4.3.2) and feeds
// the fine-to-coarse sweep of phase 2.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "geometry/quadtree.hpp"
#include "linalg/matrix.hpp"
#include "substrate/solver.hpp"

namespace subspar {

class LowRankBasis;
class SparseMatrix;

struct LowRankOptions {
  /// Phase-1 row-basis truncation: singular values >= sigma_rel_tol *
  /// sigma_max count. The paper quotes 1/100; because the interactive-block
  /// spectra decay like Fig. 4-3, a tighter tolerance fills the max_rank
  /// budget at negligible extra cost and buys ~30x lower representation
  /// error, so that is the default here (ablated in bench/ablation_rank).
  double sigma_rel_tol = 1e-4;
  /// Row-basis width cap (paper: 6, matching the p = 2 moment count).
  std::size_t max_rank = 6;
  /// Phase-2 U/T split threshold (eq. 4.27): the paper's 1/100 keeps the
  /// slow-decaying leftovers lean, which controls the density of the
  /// root-level rows of G_w.
  double u_sigma_rel_tol = 1e-2;
  /// Seed for the random sample vectors of §4.3.3 (runs are deterministic
  /// for a fixed seed).
  std::uint64_t seed = 12345;
};

/// The multilevel row-basis representation of G (phase 1, §4.3). Building it
/// runs the whole coarse-to-fine construction against the black-box solver.
class RowBasisRep {
 public:
  /// Builds the representation; `tree` must outlive this object.
  RowBasisRep(const SubstrateSolver& solver, const QuadTree& tree, LowRankOptions options = {});

  /// The contact quadtree the representation was built over.
  const QuadTree& tree() const { return *tree_; }
  /// The options the representation was built with.
  const LowRankOptions& options() const { return options_; }
  /// Black-box solves consumed by the construction.
  long solves() const { return solves_; }

  /// Approximate G v through the multilevel representation (§4.3.2): the
  /// sum of the subtree responses of v's level-2 blocks.
  Vector apply(const Vector& v) const;

  /// Row basis V_s (rows ordered like contacts(s)).
  const Matrix& v(const SquareId& s) const;
  /// Approximate response block (G_{q, s} V_s)^(r), rows ordered like
  /// contacts(q); q must be in P_s.
  const Matrix& response(const SquareId& s, const SquareId& q) const;
  /// Finest-level orthogonal complement W_s of V_s.
  const Matrix& finest_w(const SquareId& s) const;
  /// Assembled finest-level local block G^(f)_{q, s} (q in L_s).
  const Matrix& finest_local_g(const SquareId& q, const SquareId& s) const;

  /// Sorted contact ids of a square (shared row ordering of all blocks).
  const std::vector<std::size_t>& contacts(const SquareId& s) const;

 private:
  friend SparseMatrix lowrank_fill_gw(const RowBasisRep& rep, const LowRankBasis& basis);

  // Response blocks of one square's column block, keyed by square, rows
  // ordered like contacts(q).
  using ResponseBlocks = std::map<SquareId, Matrix>;

  struct SquareRep {
    Matrix v;
    ResponseBlocks response;  // (G_{q, s} V_s)^(r) for q in P_s
  };

  /// Adds G x to `out` (out[c] += G x_c over all contacts; out.size() >=
  /// x.cols()) for a block x supported on square s, rows ordered like
  /// contacts(s), evaluating only the terms of s and its descendants. Of the
  /// other terms of the whole-tree apply, those of an ancestor a of s land
  /// on interactive(a), outside local(s), and the rest are zero. Writes only
  /// the contacts of local(s) and interactive(s), summing level by level in
  /// squares() scan order and per column like matvec.
  void add_subtree_response(const SquareId& s, const Matrix& x, std::vector<Vector>& out) const;

  /// Row bases V_s from random samples, then their responses over P_s, for
  /// every square of a level (§4.3.3).
  void build_level(const SubstrateSolver& solver, int level);
  /// W_s and the local blocks G^(f)_{L_s, s} of the finest level (eq. 4.26).
  void build_finest(const SubstrateSolver& solver);

  /// Responses to per-square column blocks, x[i] over the contacts of
  /// squares(level)[i], each over the local squares of its parent (which
  /// cover P_s): by direct solves on level 2, and below it by the splitting
  /// method (eqs. 4.22-4.24), which answers the parent row-basis part from
  /// the parent-level representation and combine-solves the orthogonal
  /// remainders.
  std::map<SquareId, ResponseBlocks> respond(const SubstrateSolver& solver, int level,
                                             const std::vector<Matrix>& x) const;

  const QuadTree* tree_;
  LowRankOptions options_;
  long solves_ = 0;
  std::map<SquareId, SquareRep> reps_;
  std::map<SquareId, Matrix> finest_w_;
  std::map<std::pair<SquareId, SquareId>, Matrix> finest_g_;  // key (q, s)
};

/// Positions of the (sorted) `sub` ids within the (sorted) `super` ids.
std::vector<std::size_t> positions_in(const std::vector<std::size_t>& sub,
                                      const std::vector<std::size_t>& super);

}  // namespace subspar
