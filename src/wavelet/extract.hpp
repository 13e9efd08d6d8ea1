// Extraction of G_ws in the wavelet basis (§3.5), and the solve planner
// both sparsifiers assemble their black-box solve batches with.
//
// Combine-solves: basis vectors of well-separated squares (>= 3 apart on
// their level) are summed into one voltage vector per (level, 3x3 phase, m)
// triple (eq. 3.24), cutting the solve count to O(log n). The low-rank
// splitting method (§4.3.3) combines its orthogonal remainders by the same
// rule, per child position as well.
#pragma once

#include <span>
#include <vector>

#include "linalg/sparse.hpp"
#include "substrate/solver.hpp"
#include "wavelet/pattern.hpp"

namespace subspar {

/// Column block x of one solve batch: row i lies on contact rows[i], inside
/// `support`. `owner` is the square the block answers for: the support, or
/// a child whose block the splitting method extended to it (§4.3.3).
struct SolveBlock {
  SquareId support;
  SquareId owner;
  std::span<const std::size_t> rows;
  const Matrix& x;
};

enum class Batching {
  kDirect,    ///< one right-hand side per block column, block-major
  kCombined,  ///< column k of the blocks sharing support 3x3 phase and owner
              ///< position share one right-hand side (eq. 3.24)
};

/// response[col[b][k]] is G applied to the right-hand side carrying column
/// k of block b, over all contacts.
struct BlockResponses {
  std::vector<Vector> response;
  std::vector<std::vector<std::size_t>> col;
};

/// One solve_many batch for the blocks (none when they have no columns).
/// Combined right-hand sides come in (k, support.ix % 3, support.iy % 3,
/// owner.ix % 2, owner.iy % 2) order, owner position 0 when the owner is
/// the support; their members' supports must be >= 3 squares apart.
BlockResponses solve_blocks(const SubstrateSolver& solver, std::span<const SolveBlock> blocks,
                            Batching batching);

struct WaveletExtraction {
  SparseMatrix gws;   ///< pattern-restricted transformed conductance matrix
  long solves = 0;    ///< black-box solves consumed
};

/// Combine-solves extraction of G_ws. Accepts any multilevel basis with the
/// W/V structure (wavelet or low-rank fine-to-coarse output).
WaveletExtraction wavelet_extract_combined(const SubstrateSolver& solver,
                                           const TransformBasis& basis);

}  // namespace subspar
