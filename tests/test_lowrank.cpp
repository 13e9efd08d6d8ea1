// Tests for the low-rank sparsifier: singular-value decay premise
// (Fig. 4-3), row-basis fidelity, the apply-operator of §4.3.2, the
// fine-to-coarse sweep, the G_w fill (bit for bit against a per-column
// whole-tree fill), bit-identical row bases across runs and thread counts,
// and end-to-end accuracy including the mixed-size layouts where the
// wavelet method fails (Tables 4.1/4.2).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "core/report.hpp"
#include "geometry/layout_gen.hpp"
#include "linalg/svd.hpp"
#include "lowrank/extract.hpp"
#include "substrate/eigen_solver.hpp"
#include "substrate/solver.hpp"
#include "subspar/extraction.hpp"
#include "support/wavelet_reference.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "wavelet/basis.hpp"
#include "wavelet/extract.hpp"

namespace subspar {
namespace {

SubstrateStack test_stack() { return paper_stack(40.0, 0.5, 1.0); }

Matrix submatrix(const Matrix& g, const std::vector<std::size_t>& rows,
                 const std::vector<std::size_t>& cols) {
  Matrix out(rows.size(), cols.size());
  for (std::size_t i = 0; i < rows.size(); ++i)
    for (std::size_t j = 0; j < cols.size(); ++j) out(i, j) = g(rows[i], cols[j]);
  return out;
}

TEST(LowRankPremise, SingularValuesDecayFastForSeparatedSquares) {
  // Fig. 4-3: the s-to-d interaction block of well-separated squares has
  // rapidly decaying singular values; the self-interaction does not.
  const Layout l = regular_grid_layout(16);
  const QuadTree tree(l);
  const SurfaceSolver solver(l, test_stack());
  const Matrix g = extract_dense(solver);
  const SquareId s{2, 0, 0};  // 16 contacts per level-2 square
  const SquareId d{2, 3, 1};  // interactive to s
  const auto& cs = tree.contacts_in(s);
  const auto& cd = tree.contacts_in(d);
  const Svd far = svd(submatrix(g, cd, cs));
  const Svd self = svd(submatrix(g, cs, cs));
  // After 6 singular values the far interaction is deep in the noise...
  EXPECT_LT(far.sigma[6] / far.sigma[0], 1e-5);
  // ...while the self-interaction hasn't even dropped by 100x.
  EXPECT_GT(self.sigma[6] / self.sigma[0], 1e-2);
}

TEST(LowRankPremise, SimpleSixVignette) {
  // §4.1: for the Fig. 4-1 layout, the second singular value of the
  // destination-from-source block is tiny, and driving the source contacts
  // with the trailing right singular vector yields near-zero far response.
  const Layout l = simple_six_layout();
  const SurfaceSolver solver(l, test_stack());
  const Matrix g = extract_dense(solver);
  const std::vector<std::size_t> src{0, 1}, dst{2, 3, 4, 5};
  const Matrix gds = submatrix(g, dst, src);
  const Svd dec = svd(gds);
  EXPECT_LT(dec.sigma[1] / dec.sigma[0], 5e-2);
  Vector drive(l.n_contacts());
  drive[0] = dec.v(0, 1);
  drive[1] = dec.v(1, 1);
  const Vector resp = solver.solve(drive);
  for (const std::size_t d : dst)
    EXPECT_LT(std::abs(resp[d]), 0.05 * std::abs(dec.sigma[0]));
}

struct LowRankFixture {
  Layout layout;
  QuadTree tree;
  SurfaceSolver solver;
  explicit LowRankFixture(Layout l)
      : layout(std::move(l)), tree(layout), solver(layout, test_stack()) {}
};

TEST(RowBasisRep, ApplyMatchesDenseOperator) {
  LowRankFixture f(regular_grid_layout(8));
  const Matrix g = extract_dense(f.solver);
  const RowBasisRep rep(f.solver, f.tree);
  Rng rng(3);
  for (int t = 0; t < 3; ++t) {
    Vector x(f.layout.n_contacts());
    for (auto& v : x) v = rng.normal();
    const Vector exact = matvec(g, x);
    const Vector approx = rep.apply(x);
    EXPECT_LT(norm2(approx - exact), 2e-2 * norm2(exact));
  }
}

TEST(RowBasisRep, ApplyAccurateOnMixedSizes) {
  LowRankFixture f(alternating_size_layout(8));
  const Matrix g = extract_dense(f.solver);
  const RowBasisRep rep(f.solver, f.tree);
  Rng rng(4);
  Vector x(f.layout.n_contacts());
  for (auto& v : x) v = rng.normal();
  const Vector exact = matvec(g, x);
  EXPECT_LT(norm2(rep.apply(x) - exact), 2e-2 * norm2(exact));
}

TEST(RowBasisRep, UsesFewSolves) {
  LowRankFixture f(regular_grid_layout(8));
  const RowBasisRep rep(f.solver, f.tree);
  EXPECT_GT(rep.solves(), 0);
  // At n = 64 the representation still needs a fraction of the naive count
  // growing sublinearly; just pin the accounting here.
  EXPECT_EQ(rep.solves(), f.solver.solve_count());
}

TEST(RowBasisRep, RowBasisCapturesInteractiveResponses) {
  LowRankFixture f(regular_grid_layout(8));
  const Matrix g = extract_dense(f.solver);
  const RowBasisRep rep(f.solver, f.tree);
  // For a finest-level square s and d in I_s, G_{d,s} should be captured:
  // columns of G_{d,s} restricted responses lie near span of recorded data.
  const SquareId s{3, 3, 3};
  const auto inter = f.tree.interactive(s);
  ASSERT_FALSE(inter.empty());
  const SquareId d = inter.front();
  const Matrix gds = submatrix(g, f.tree.contacts_in(d), f.tree.contacts_in(s));
  const Matrix& v = rep.v(s);
  // || G_ds (I - V V') || should be small relative to || G_ds ||.
  const Matrix proj = matmul(gds, Matrix::identity(v.rows()) - matmul_nt(v, v));
  EXPECT_LT(proj.frobenius_norm(), 5e-2 * gds.frobenius_norm());
}

TEST(RowBasisRep, FinestLocalBlocksMatchDenseG) {
  LowRankFixture f(regular_grid_layout(8));
  const Matrix g = extract_dense(f.solver);
  const RowBasisRep rep(f.solver, f.tree);
  const SquareId s{3, 2, 2};
  for (const SquareId& q : f.tree.local(s)) {
    const Matrix exact = submatrix(g, f.tree.contacts_in(q), f.tree.contacts_in(s));
    const Matrix& approx = rep.finest_local_g(q, s);
    EXPECT_LT((approx - exact).max_abs(), 2e-2 * g.max_abs());
  }
}

TEST(LowRankBasis, QIsOrthogonal) {
  LowRankFixture f(regular_grid_layout(8));
  const RowBasisRep rep(f.solver, f.tree);
  const LowRankBasis basis(rep);
  const Matrix qd = basis.q().to_dense();
  EXPECT_LT((matmul_tn(qd, qd) - Matrix::identity(f.layout.n_contacts())).max_abs(), 1e-10);
}

TEST(LowRankBasis, QIsOrthogonalOnIrregularLayout) {
  LowRankFixture f(mixed_shapes_layout(16, 21));
  const RowBasisRep rep(f.solver, f.tree);
  const LowRankBasis basis(rep);
  const Matrix qd = basis.q().to_dense();
  EXPECT_LT((matmul_tn(qd, qd) - Matrix::identity(f.layout.n_contacts())).max_abs(), 1e-10);
}

TEST(LowRankBasis, ColumnCountEqualsContacts) {
  LowRankFixture f(alternating_size_layout(8));
  const RowBasisRep rep(f.solver, f.tree);
  const LowRankBasis basis(rep);
  EXPECT_EQ(basis.columns().size(), f.layout.n_contacts());
  EXPECT_EQ(basis.root_level(), 2);
}

TEST(LowRankExtract, GwSymmetricAndPatternRestricted) {
  LowRankFixture f(regular_grid_layout(8));
  const RowBasisRep rep(f.solver, f.tree);
  const LowRankBasis basis(rep);
  const SparseMatrix gw = lowrank_fill_gw(rep, basis);
  const Matrix d = gw.to_dense();
  EXPECT_LT((d - d.transposed()).max_abs(), 1e-10 * d.max_abs());
  const WaveletPattern pattern(basis);
  for (const auto& [i, j] : gw.coordinates()) EXPECT_TRUE(pattern.allowed(i, j));
}

TEST(LowRankExtract, AccurateOnRegularGrid) {
  LowRankFixture f(regular_grid_layout(16));
  const Matrix g = extract_dense(f.solver);
  const ExtractionResult ex = Extractor(f.solver, f.tree).extract();
  const ErrorStats err = reconstruction_error(ex.model.q(), ex.model.gw(), g);
  EXPECT_LT(err.max_rel_error, 0.10);
  // The solve count grows like O(log n) with a sizable constant: at n = 256
  // it is still below 2n, and the reduction factor grows with n (Table 4.3
  // shape, exercised by bench/table_4_3_large).
  EXPECT_LT(ex.report.solves, 2 * static_cast<long>(f.layout.n_contacts()));
}

TEST(LowRankExtract, FarBetterThanWaveletOnAlternatingSizes) {
  // The Chapter 4 headline (Tables 4.1/4.2): on mixed-size layouts the
  // operator-adapted basis beats the geometric moment basis on accuracy
  // while also being sparser.
  LowRankFixture f(alternating_size_layout(16));
  const Matrix g = extract_dense(f.solver);
  const WaveletBasis wbasis(f.tree);
  const WaveletExtraction wex = wavelet_extract_combined(f.solver, wbasis);
  const ErrorStats werr = reconstruction_error(wbasis.q(), wex.gws, g);
  const SparsifiedModel model = Extractor(f.solver, f.tree).extract().model;
  const ErrorStats lerr = reconstruction_error(model.q(), model.gw(), g);
  EXPECT_LT(lerr.max_rel_error, 0.5 * werr.max_rel_error);
  EXPECT_LT(lerr.frac_above_10pct, 0.5 * werr.frac_above_10pct);
  EXPECT_GT(model.gw().sparsity_factor(), wex.gws.sparsity_factor());
}

TEST(LowRankExtract, HandlesMixedShapes) {
  LowRankFixture f(mixed_shapes_layout(16, 9));
  const Matrix g = extract_dense(f.solver);
  const SparsifiedModel model = Extractor(f.solver, f.tree).extract().model;
  const ErrorStats err = reconstruction_error(model.q(), model.gw(), g);
  EXPECT_LT(err.frac_above_10pct, 0.05);
}

TEST(LowRankExtract, ThresholdingKeepsMostEntriesAccurate) {
  LowRankFixture f(regular_grid_layout(16));
  const Matrix g = extract_dense(f.solver);
  const SparsifiedModel model = Extractor(f.solver, f.tree).extract().model;
  const SparseMatrix gwt = threshold_to_nnz(model.gw(), model.gw().nnz() / 6);
  const ErrorStats err = reconstruction_error(model.q(), gwt, g);
  EXPECT_LT(err.frac_above_10pct, 0.10);
  EXPECT_GT(gwt.sparsity_factor(), 5.0 * model.gw().sparsity_factor());
}

// The whole-tree apply of §4.3.2 over the public accessors: eq. 4.16 for
// every square of every level in squares() order, then the finest local
// blocks, each term through matvec / matvec_t.
Vector whole_tree_apply(const RowBasisRep& rep, const Vector& x) {
  const QuadTree& tree = rep.tree();
  const auto restrict_to = [&](const SquareId& s) {
    const auto& ids = rep.contacts(s);
    Vector xs(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) xs[i] = x[ids[i]];
    return xs;
  };
  Vector out(x.size());
  for (int lev = 2; lev <= tree.max_level(); ++lev) {
    for (const SquareId& s : tree.squares(lev)) {
      const Vector xs = restrict_to(s);
      const Matrix& v = rep.v(s);
      Vector cs, os = xs;
      if (v.cols() > 0) {
        cs = matvec_t(v, xs);
        os -= matvec(v, cs);
      }
      for (const SquareId& d : tree.interactive(s)) {
        const auto& dids = rep.contacts(d);
        Vector id(dids.size());
        if (v.cols() > 0) id += matvec(rep.response(s, d), cs);
        if (rep.v(d).cols() > 0)
          id += matvec(rep.v(d), matvec_t(rep.response(d, s), os));
        for (std::size_t i = 0; i < dids.size(); ++i) out[dids[i]] += id[i];
      }
    }
  }
  for (const SquareId& s : tree.squares(tree.max_level())) {
    const Vector xs = restrict_to(s);
    for (const SquareId& q : tree.local(s)) {
      const auto& qids = rep.contacts(q);
      const Vector iq = matvec(rep.finest_local_g(q, s), xs);
      for (std::size_t i = 0; i < qids.size(); ++i) out[qids[i]] += iq[i];
    }
  }
  return out;
}

// G_w filled one basis column at a time: the whole-tree apply of the column,
// then column_dot against every row the conservative pattern keeps for it.
SparseMatrix per_column_fill(const RowBasisRep& rep, const LowRankBasis& basis) {
  const QuadTree& tree = rep.tree();
  const std::size_t n = basis.n();
  SymmetricEntryAccumulator acc(n);
  for (const std::size_t k : basis.root_columns()) {
    const Vector u = whole_tree_apply(rep, basis.column_vector(k));
    for (std::size_t j = 0; j < n; ++j) acc.record(j, k, basis.column_dot(j, u));
  }
  for (int lev = 2; lev <= tree.max_level(); ++lev) {
    for (const SquareId& s : tree.squares(lev)) {
      for (const std::size_t col : basis.w_columns(s)) {
        const Vector u = whole_tree_apply(rep, basis.column_vector(col));
        for (const SquareId& t : tree.local(s))
          for (const SquareId& sp : subtree_squares(tree, t))
            for (const std::size_t row : basis.w_columns(sp))
              acc.record(row, col, basis.column_dot(row, u));
      }
    }
  }
  return acc.build();
}

struct FillCase {
  const char* name;
  Layout (*layout)();
};

void PrintTo(const FillCase& c, std::ostream* os) { *os << c.name; }

class BitwiseFill : public ::testing::TestWithParam<FillCase> {};

TEST_P(BitwiseFill, SubtreeFillEqualsPerColumnWholeTreeFill) {
  // Each square's subtree walk must reproduce the per-column whole-tree
  // fill exactly: same pattern, and every value to the last bit (the terms
  // it skips are zero on the recorded rows; the ones it keeps are summed in
  // the same order).
  LowRankFixture f(GetParam().layout());
  const RowBasisRep rep(f.solver, f.tree);
  const LowRankBasis basis(rep);
  const SparseMatrix fast = lowrank_fill_gw(rep, basis);
  const SparseMatrix ref = per_column_fill(rep, basis);
  ASSERT_EQ(fast.rows(), ref.rows());
  ASSERT_EQ(fast.nnz(), ref.nnz());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < ref.rows(); ++i) {
    ASSERT_EQ(fast.row_begin(i), ref.row_begin(i)) << "row " << i;
    for (std::size_t k = ref.row_begin(i); k < ref.row_end(i); ++k) {
      ASSERT_EQ(fast.col_index(k), ref.col_index(k)) << "row " << i;
      mismatches += std::bit_cast<std::uint64_t>(fast.value(k)) !=
                    std::bit_cast<std::uint64_t>(ref.value(k));
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << ref.nnz() << " values differ in some bit";
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, BitwiseFill,
    ::testing::Values(
        FillCase{"Grid8Sampling", [] { return regular_grid_layout(8); }},
        FillCase{"Grid16Sampling", [] { return regular_grid_layout(16); }},
        FillCase{"Alternating8Sampling", [] { return alternating_size_layout(8); }},
        FillCase{"MixedShapes16Sampling", [] { return mixed_shapes_layout(16, 21); }}),
    [](const ::testing::TestParamInfo<FillCase>& info) { return info.param.name; });

TEST(RowBasisRep, ApplyMatchesWholeTreeApply) {
  // apply() sums the level-2 subtree walks, a different order than the
  // whole-tree sweep, so the two agree to rounding.
  LowRankFixture f(mixed_shapes_layout(16, 21));
  const RowBasisRep rep(f.solver, f.tree);
  Rng rng(7);
  Vector x(f.layout.n_contacts());
  for (auto& v : x) v = rng.normal();
  const Vector ref = whole_tree_apply(rep, x);
  EXPECT_LT(norm2(rep.apply(x) - ref), 1e-13 * norm2(ref));
}

// apply() of two representations on one seeded vector, compared bit for
// bit (a -0.0 or a NaN payload counts as a difference).
std::size_t apply_bit_mismatches(const RowBasisRep& a, const RowBasisRep& b, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(a.tree().layout().n_contacts());
  for (auto& x : v) x = rng.normal();
  const Vector ya = a.apply(v);
  const Vector yb = b.apply(v);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < v.size(); ++i)
    mismatches += std::bit_cast<std::uint64_t>(ya[i]) != std::bit_cast<std::uint64_t>(yb[i]);
  return mismatches;
}

TEST(RowBasisRep, FixedSeedIsBitReproducible) {
  // Two builds from one seed draw the same sample vectors and make the same
  // solves, so the representations agree to the last bit.
  LowRankFixture f(regular_grid_layout(16));
  const RowBasisRep a(f.solver, f.tree);
  const RowBasisRep b(f.solver, f.tree);
  EXPECT_EQ(apply_bit_mismatches(a, b, 5), 0u);
  EXPECT_EQ(a.solves(), b.solves());
}

TEST(RowBasisRep, ThreadCountDoesNotChangeBits) {
  // The north-star contract for the headline method: results do not depend
  // on the thread count.
  LowRankFixture f(regular_grid_layout(16));
  const std::size_t restore = thread_count();
  set_thread_count(1);
  const RowBasisRep one(f.solver, f.tree);
  set_thread_count(4);
  const RowBasisRep four(f.solver, f.tree);
  set_thread_count(restore);
  EXPECT_EQ(apply_bit_mismatches(one, four, 9), 0u);
  EXPECT_EQ(one.solves(), four.solves());
}

TEST(PositionsIn, MapsSortedSubsets) {
  const std::vector<std::size_t> super{1, 4, 7, 9, 12};
  const std::vector<std::size_t> sub{4, 9, 12};
  const auto pos = positions_in(sub, super);
  EXPECT_EQ(pos, (std::vector<std::size_t>{1, 3, 4}));
  EXPECT_THROW(positions_in({5}, super), std::invalid_argument);
}

class SeedSweep : public ::testing::TestWithParam<int> {};

TEST_P(SeedSweep, ApplyAccuracyRobustToSampleSeed) {
  // The row basis is built from random sample vectors; accuracy must not
  // hinge on a lucky seed.
  LowRankFixture f(regular_grid_layout(8));
  const Matrix g = extract_dense(f.solver);
  const RowBasisRep rep(f.solver, f.tree,
                        {.seed = 1000 + static_cast<std::uint64_t>(GetParam())});
  Rng rng(42);
  Vector x(f.layout.n_contacts());
  for (auto& v : x) v = rng.normal();
  const Vector exact = matvec(g, x);
  EXPECT_LT(norm2(rep.apply(x) - exact), 3e-2 * norm2(exact));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Range(0, 5));

}  // namespace
}  // namespace subspar
