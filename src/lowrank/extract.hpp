// G_w assembly of the low-rank sparsification (§4.2), after phase 1 (row
// basis) and phase 2 (fine-to-coarse sweep); Extractor runs all three.
//
// G_w entries are computed by applying the phase-1 representation to the
// (sparse) columns of Q and projecting onto the locally-interacting basis
// vectors; no additional black-box solves are consumed. A column of Q is
// supported on one square s, so only the representation terms of s and its
// descendants reach the rows the pattern records (local(s) and, for the
// level-2 leftovers, everything): each square's column block takes one walk
// of its subtree. A square's subtree has O(4^(L - l)) squares, so the fill
// costs O(n log n) block products plus one dot per recorded entry, and is
// bit-identical to applying the whole-tree representation column by column
// (see docs/ARCHITECTURE.md, "Low-rank G_w fill").
#pragma once

#include "lowrank/fine_to_coarse.hpp"
#include "lowrank/row_basis.hpp"
#include "wavelet/pattern.hpp"

namespace subspar {

/// G_w assembly given an existing representation and basis.
SparseMatrix lowrank_fill_gw(const RowBasisRep& rep, const LowRankBasis& basis);

}  // namespace subspar
