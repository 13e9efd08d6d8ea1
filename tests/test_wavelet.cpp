// Tests for the wavelet sparsifier: orthogonality and vanishing moments of
// the multilevel basis, exactness of the reference transform, fidelity of
// the combine-solves extraction, thresholding, and end-to-end accuracy.
#include <gtest/gtest.h>

#include <cmath>

#include "core/report.hpp"
#include "geometry/layout_gen.hpp"
#include "geometry/moments.hpp"
#include "substrate/eigen_solver.hpp"
#include "substrate/fd_solver.hpp"
#include "substrate/solver.hpp"
#include "support/direct_threshold.hpp"
#include "support/wavelet_reference.hpp"
#include "wavelet/basis.hpp"
#include "wavelet/extract.hpp"
#include "wavelet/pattern.hpp"

namespace subspar {
namespace {

SubstrateStack test_stack() { return paper_stack(40.0, 0.5, 1.0); }

struct Fixture {
  Layout layout;
  QuadTree tree;
  WaveletBasis basis;
  explicit Fixture(Layout l, int p = 2) : layout(std::move(l)), tree(layout), basis(tree, p) {}
};

TEST(WaveletBasis, QIsOrthogonal) {
  Fixture f(regular_grid_layout(8));
  const Matrix qd = f.basis.q().to_dense();
  const Matrix qtq = matmul_tn(qd, qd);
  EXPECT_LT((qtq - Matrix::identity(f.layout.n_contacts())).max_abs(), 1e-10);
}

TEST(WaveletBasis, QIsOrthogonalOnIrregularLayout) {
  Fixture f(irregular_layout(8, 0.55, 11));
  const Matrix qd = f.basis.q().to_dense();
  EXPECT_LT((matmul_tn(qd, qd) - Matrix::identity(f.layout.n_contacts())).max_abs(), 1e-10);
}

TEST(WaveletBasis, ColumnCountEqualsContacts) {
  Fixture f(alternating_size_layout(8));
  EXPECT_EQ(f.basis.columns().size(), f.layout.n_contacts());
  EXPECT_EQ(f.basis.q().rows(), f.layout.n_contacts());
  EXPECT_EQ(f.basis.q().cols(), f.layout.n_contacts());
}

TEST(WaveletBasis, WColumnsHaveVanishingMoments) {
  Fixture f(regular_grid_layout(8));
  const int p = f.basis.p();
  for (std::size_t j = 0; j < f.basis.columns().size(); ++j) {
    const WaveletColumn& col = f.basis.columns()[j];
    if (!col.vanishing) continue;
    // Moments of the associated voltage function over the square's contacts
    // about the square center must vanish up to order p (eq. 3.14).
    const SquareBasis& sb = f.basis.square_basis(col.square);
    const auto [cx, cy] = f.tree.center(col.square);
    const Matrix ms = moment_matrix(f.layout, sb.contacts, cx, cy, p);
    Vector coeffs(sb.contacts.size());
    for (std::size_t i = 0; i < sb.contacts.size(); ++i) coeffs[i] = sb.w(i, col.m);
    const Vector mom = matvec(ms, coeffs);
    EXPECT_LT(norm_inf(mom), 1e-8) << "column " << j;
  }
}

TEST(WaveletBasis, VCountsBoundedByMomentCount) {
  Fixture f(alternating_size_layout(8));
  for (int lev = 0; lev <= f.tree.max_level(); ++lev) {
    for (const SquareId& s : f.tree.squares(lev)) {
      EXPECT_LE(f.basis.square_basis(s).v.cols(), moment_count(2));
    }
  }
}

TEST(WaveletBasis, ColumnVectorMatchesSparseQ) {
  Fixture f(regular_grid_layout(8));
  const Matrix qd = f.basis.q().to_dense();
  for (const std::size_t j : {std::size_t{0}, std::size_t{10}, f.layout.n_contacts() - 1}) {
    const Vector col = f.basis.column_vector(j);
    for (std::size_t i = 0; i < col.size(); ++i) EXPECT_DOUBLE_EQ(col[i], qd(i, j));
  }
}

TEST(WaveletBasis, ExactReconstructionWithoutDropping) {
  // Q orthogonal implies Q (Q' G Q) Q' == G exactly (no pattern, no
  // threshold) — the sanity identity behind eq. 3.1/3.2.
  Fixture f(regular_grid_layout(4));
  const SurfaceSolver solver(f.layout, test_stack());
  const Matrix g = extract_dense(solver);
  const Matrix gw = transform_congruence(f.basis.q(), g);
  const SparseMatrix gw_sparse = SparseMatrix::from_dense(gw);
  const ErrorStats err = reconstruction_error(f.basis.q(), gw_sparse, g);
  EXPECT_LT(err.max_rel_error, 1e-7);
}

TEST(WaveletBasis, TransformedMatrixConcentratesNearPattern) {
  // Energy outside the conservative pattern must be a small fraction of the
  // total (that is the entire premise of §3.5).
  Fixture f(regular_grid_layout(8));
  const SurfaceSolver solver(f.layout, test_stack());
  const Matrix g = extract_dense(solver);
  const Matrix gw = transform_congruence(f.basis.q(), g);
  const WaveletPattern pattern(f.basis);
  double in2 = 0.0, out2 = 0.0;
  for (std::size_t i = 0; i < gw.rows(); ++i)
    for (std::size_t j = 0; j < gw.cols(); ++j)
      (pattern.allowed(i, j) ? in2 : out2) += gw(i, j) * gw(i, j);
  EXPECT_LT(out2, 1e-4 * in2);
}

TEST(WaveletPattern, RootRowsAlwaysAllowed) {
  Fixture f(regular_grid_layout(8));
  const WaveletPattern pattern(f.basis);
  const std::size_t root = f.basis.root_columns().front();
  for (std::size_t j = 0; j < f.basis.columns().size(); j += 37)
    EXPECT_TRUE(pattern.allowed(root, j));
}

TEST(WaveletPattern, SymmetricAllowedRelation) {
  Fixture f(irregular_layout(8, 0.6, 3));
  const WaveletPattern pattern(f.basis);
  const std::size_t n = f.basis.columns().size();
  for (std::size_t i = 0; i < n; i += 7)
    for (std::size_t j = 0; j < n; j += 11) EXPECT_EQ(pattern.allowed(i, j), pattern.allowed(j, i));
}

TEST(Threshold, KeepsLargestEntriesSymmetrically) {
  Matrix a(4, 4);
  a(0, 1) = a(1, 0) = 5.0;
  a(2, 3) = a(3, 2) = 0.1;
  a(0, 0) = 10.0;
  const SparseMatrix sp = SparseMatrix::from_dense(a);
  const SparseMatrix t = threshold_to_nnz(sp, 3);
  EXPECT_EQ(t.nnz(), 3u);
  const Matrix td = t.to_dense();
  EXPECT_DOUBLE_EQ(td(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(td(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(td(2, 3), 0.0);
  EXPECT_DOUBLE_EQ(td(3, 2), 0.0);
}

TEST(Threshold, NoOpWhenAlreadySparseEnough) {
  Matrix a(3, 3);
  a(0, 0) = 1.0;
  const SparseMatrix sp = SparseMatrix::from_dense(a);
  EXPECT_EQ(threshold_to_nnz(sp, 5).nnz(), 1u);
}

TEST(SymmetricEntryAccumulator, AveragesBothDirectionsInRecordOrder) {
  SymmetricEntryAccumulator acc(3);
  acc.record(0, 2, 1.0);
  acc.record(2, 0, 3.0);  // the other direction: mean 2
  acc.record(1, 1, 5.0);
  acc.record(2, 1, 0.0);  // exact zero, left out
  // Three measurements sum in record order: (1e17 + 1) - 1e17 = 0 in
  // doubles, so the entry vanishes; another order would leave 1/3.
  acc.record(0, 1, 1e17);
  acc.record(1, 0, 1.0);
  acc.record(0, 1, -1e17);
  const SparseMatrix a = acc.build();
  EXPECT_EQ(a.nnz(), 3u);
  const Matrix d = a.to_dense();
  EXPECT_DOUBLE_EQ(d(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(d(2, 0), 2.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(d(2, 1), 0.0);
}

// ------------------------------------------------- extraction end-to-end

TEST(WaveletExtract, CombinedMatchesReferenceOnKeptEntries) {
  Fixture f(regular_grid_layout(4));
  const SurfaceSolver solver(f.layout, test_stack());
  const WaveletExtraction ref = wavelet_extract_reference(solver, f.basis);
  const WaveletExtraction fast = wavelet_extract_combined(solver, f.basis);
  // Same pattern, except that a pattern entry whose true magnitude is at
  // rounding level can cancel to exactly 0.0 in the dense reference and be
  // dropped by the mask — which side of zero it lands on is rounding luck,
  // not signal. Any pattern mismatch must be numerically negligible.
  const Matrix rd = ref.gws.to_dense();
  const Matrix fd = fast.gws.to_dense();
  for (std::size_t i = 0; i < rd.rows(); ++i) {
    for (std::size_t j = 0; j < rd.cols(); ++j) {
      if ((rd(i, j) == 0.0) != (fd(i, j) == 0.0)) {
        EXPECT_LT(std::max(std::abs(rd(i, j)), std::abs(fd(i, j))), 1e-10 * rd.max_abs())
            << i << "," << j;
      }
    }
  }
  // Entries agree to the accuracy of the well-separated assumption: the
  // contamination from 3-apart squares is small relative to the largest
  // entries.
  EXPECT_LT((rd - fd).max_abs(), 2e-3 * rd.max_abs());
}

TEST(WaveletExtract, CombinedUsesFarFewerSolves) {
  // Solve reduction kicks in once there are enough levels (n = 256 here;
  // the reduction factor grows with n, cf. Tables 4.1/4.3).
  Fixture f(regular_grid_layout(16));
  const SurfaceSolver solver(f.layout, test_stack());
  const WaveletExtraction fast = wavelet_extract_combined(solver, f.basis);
  EXPECT_LT(fast.solves, static_cast<long>(f.layout.n_contacts()) * 3 / 4);
}

TEST(WaveletExtract, GwsIsSymmetric) {
  Fixture f(regular_grid_layout(4));
  const SurfaceSolver solver(f.layout, test_stack());
  const WaveletExtraction fast = wavelet_extract_combined(solver, f.basis);
  const Matrix d = fast.gws.to_dense();
  EXPECT_LT((d - d.transposed()).max_abs(), 1e-12 * d.max_abs());
}

TEST(WaveletExtract, AccurateReconstructionOnRegularGrid) {
  Fixture f(regular_grid_layout(16));
  const SurfaceSolver solver(f.layout, test_stack());
  const Matrix g = extract_dense(solver);
  const WaveletExtraction fast = wavelet_extract_combined(solver, f.basis);
  const ErrorStats err = reconstruction_error(f.basis.q(), fast.gws, g);
  // Paper Table 3.1 example 1a reports 0.2% max relative error at n = 1024;
  // n = 256 measures ~0.1% here.
  EXPECT_LT(err.max_rel_error, 0.01);
  EXPECT_GT(fast.gws.sparsity_factor(), 1.25);
}

TEST(WaveletExtract, ThresholdingTradesAccuracyForSparsity) {
  Fixture f(regular_grid_layout(8));
  const SurfaceSolver solver(f.layout, test_stack());
  const Matrix g = extract_dense(solver);
  const WaveletExtraction fast = wavelet_extract_combined(solver, f.basis);
  const SparseMatrix gwt = threshold_to_nnz(fast.gws, fast.gws.nnz() / 6);
  EXPECT_GT(gwt.sparsity_factor(), 5.0 * fast.gws.sparsity_factor());
  const ErrorStats full = reconstruction_error(f.basis.q(), fast.gws, g);
  const ErrorStats thr = reconstruction_error(f.basis.q(), gwt, g);
  EXPECT_LE(full.frac_above_10pct, thr.frac_above_10pct + 1e-12);
  // Thresholded form is still far better than nothing: most entries fine.
  EXPECT_LT(thr.frac_above_10pct, 0.30);
}

TEST(WaveletExtract, BeatsDirectThresholdingOfG) {
  // The headline claim of Chapter 3: thresholding G_w is much more accurate
  // than thresholding G at the same sparsity.
  Fixture f(regular_grid_layout(8));
  const SurfaceSolver solver(f.layout, test_stack());
  const Matrix g = extract_dense(solver);
  const WaveletExtraction fast = wavelet_extract_combined(solver, f.basis);
  const std::size_t target = fast.gws.nnz() / 6;
  const SparseMatrix gwt = threshold_to_nnz(fast.gws, target);
  const ErrorStats wav = reconstruction_error(f.basis.q(), gwt, g);
  const double keep = static_cast<double>(gwt.nnz()) /
                      (static_cast<double>(g.rows()) * static_cast<double>(g.cols()));
  const ErrorStats naive = direct_threshold_error(g, keep);
  EXPECT_LT(wav.frac_above_10pct, naive.frac_above_10pct);
}

TEST(WaveletExtract, StrugglesOnAlternatingSizes) {
  // The motivating failure for Chapter 4 (Table 3.1 example 3): mixed
  // contact sizes break the geometric moment construction: accuracy is much
  // worse than on the same-size grid. Measured at n = 64: on the 4x4 grid
  // every square is local to every other, so the combined extraction is
  // near-exact there and the comparison would only see solver noise.
  Fixture reg(regular_grid_layout(8));
  Fixture alt(alternating_size_layout(8));
  const SurfaceSolver sreg(reg.layout, test_stack());
  const SurfaceSolver salt(alt.layout, test_stack());
  const Matrix greg = extract_dense(sreg);
  const Matrix galt = extract_dense(salt);
  const ErrorStats ereg = reconstruction_error(
      reg.basis.q(), wavelet_extract_combined(sreg, reg.basis).gws, greg);
  const ErrorStats ealt = reconstruction_error(
      alt.basis.q(), wavelet_extract_combined(salt, alt.basis).gws, galt);
  EXPECT_GT(ealt.max_rel_error, 3.0 * ereg.max_rel_error);
}


TEST(WaveletExtract, BlackBoxGenericityWithWelledFdSolver) {
  // The paper's portability claim (§1.3): solvers with realistic features
  // such as surface indentations plug in "with no modifications to our
  // algorithms". Sparsify through an FD solver with an etched trench.
  Fixture f(regular_grid_layout(4));
  FdSolverOptions opt{.grid_h = 2.0, .rel_tol = 1e-8};
  opt.wells.push_back({14.0, 0.0, 4.0, 32.0, 4.0});
  const SubstrateStack st({{4.0, 1.0}, {4.0, 10.0}}, Backplane::kGrounded);
  const FdSolver solver(f.layout, st, opt);
  const Matrix g = extract_dense(solver);
  const WaveletExtraction fast = wavelet_extract_combined(solver, f.basis);
  const ErrorStats err = reconstruction_error(f.basis.q(), fast.gws, g);
  EXPECT_LT(err.frac_above_10pct, 0.15);
}

class MomentOrderEffect : public ::testing::TestWithParam<int> {};

TEST_P(MomentOrderEffect, BasisOrthogonalForAllOrders) {
  const int p = GetParam();
  Layout l = regular_grid_layout(4);
  const QuadTree tree(l);
  const WaveletBasis basis(tree, p);
  const Matrix qd = basis.q().to_dense();
  EXPECT_LT((matmul_tn(qd, qd) - Matrix::identity(l.n_contacts())).max_abs(), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Orders, MomentOrderEffect, ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace subspar
