// Tests for the dense linear-algebra substrate: vector/matrix kernels and
// every factorization, including randomized property sweeps (TEST_P).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "linalg/cholesky.hpp"
#include "linalg/eig_sym.hpp"
#include "linalg/iterative.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace subspar {
namespace {

Matrix random_matrix(std::size_t m, std::size_t n, Rng& rng) {
  Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
  return a;
}

Matrix random_spd(std::size_t n, Rng& rng) {
  const Matrix b = random_matrix(n, n, rng);
  Matrix a = matmul_tn(b, b);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

double max_abs_diff(const Matrix& a, const Matrix& b) { return (a - b).max_abs(); }

// ---------------------------------------------------------------- vectors

TEST(Vector, ArithmeticAndNorms) {
  Vector a{1.0, 2.0, 2.0};
  Vector b{1.0, 0.0, -1.0};
  EXPECT_DOUBLE_EQ(dot(a, b), -1.0);
  EXPECT_DOUBLE_EQ(norm2(a), 3.0);
  EXPECT_DOUBLE_EQ(norm_inf(b), 1.0);
  a.axpy(2.0, b);
  EXPECT_DOUBLE_EQ(a[0], 3.0);
  EXPECT_DOUBLE_EQ(a[2], 0.0);
}

TEST(Vector, SizeMismatchThrows) {
  Vector a(3), b(4);
  EXPECT_THROW(dot(a, b), std::invalid_argument);
  EXPECT_THROW(a += b, std::invalid_argument);
}

// ---------------------------------------------------------------- matrices

TEST(Matrix, MatvecMatchesManual) {
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  const Vector x{1.0, 1.0, 1.0};
  const Vector y = matvec(a, x);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
  const Vector z = matvec_t(a, Vector{1.0, 1.0});
  EXPECT_DOUBLE_EQ(z[0], 5.0);
  EXPECT_DOUBLE_EQ(z[2], 9.0);
}

TEST(Matrix, MultiplyVariantsAgree) {
  Rng rng(3);
  const Matrix a = random_matrix(4, 6, rng);
  const Matrix b = random_matrix(6, 5, rng);
  const Matrix c1 = matmul(a, b);
  const Matrix c2 = matmul_tn(a.transposed(), b);
  const Matrix c3 = matmul_nt(a, b.transposed());
  EXPECT_LT(max_abs_diff(c1, c2), 1e-12);
  EXPECT_LT(max_abs_diff(c1, c3), 1e-12);
}

TEST(Matrix, BlockAndHcat) {
  Rng rng(4);
  const Matrix a = random_matrix(5, 4, rng);
  const Matrix b = a.block(1, 1, 3, 2);
  EXPECT_DOUBLE_EQ(b(0, 0), a(1, 1));
  EXPECT_DOUBLE_EQ(b(2, 1), a(3, 2));
  const Matrix c = Matrix::hcat(a, a);
  EXPECT_EQ(c.cols(), 8u);
  EXPECT_DOUBLE_EQ(c(2, 6), a(2, 2));
}

TEST(Matrix, HcatWithEmptyOperand) {
  Matrix a(3, 2, 1.0);
  Matrix empty(3, 0);
  EXPECT_EQ(Matrix::hcat(a, empty).cols(), 2u);
  EXPECT_EQ(Matrix::hcat(empty, a).cols(), 2u);
}

// ----------------------------------------------------- blocked dense kernels

// Plain triple-loop reference the blocked kernels are validated against.
Matrix ref_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      c(i, j) = s;
    }
  return c;
}

TEST(DenseKernels, BlockedMatmulMatchesNaiveAcrossShapes) {
  // Rectangular shapes straddling the tile (64), micro-kernel (4x8), and
  // packing-slice (256) boundaries, plus degenerate thin cases.
  const std::size_t shapes[][3] = {{67, 45, 130}, {64, 64, 64},  {65, 63, 9},
                                   {4, 300, 4},   {1, 520, 1},   {129, 257, 66},
                                   {16, 1024, 16}, {3, 2, 500}};
  Rng rng(50);
  for (const auto& s : shapes) {
    const std::size_t m = s[0], k = s[1], n = s[2];
    const Matrix a = random_matrix(m, k, rng);
    const Matrix b = random_matrix(k, n, rng);
    const Matrix ref = ref_matmul(a, b);
    const double tol = 1e-12 * static_cast<double>(k);
    EXPECT_LT(max_abs_diff(matmul(a, b), ref), tol) << m << "x" << k << "x" << n;
    EXPECT_LT(max_abs_diff(matmul_tn(a.transposed(), b), ref), tol);
    EXPECT_LT(max_abs_diff(matmul_nt(a, b.transposed()), ref), tol);
  }
}

TEST(DenseKernels, AccumulateVariantsMatchExpandedForm) {
  Rng rng(51);
  const Matrix a = random_matrix(70, 90, rng);
  const Matrix b = random_matrix(90, 50, rng);
  const Matrix c0 = random_matrix(70, 50, rng);
  for (const double alpha : {1.0, -1.0, 2.5}) {
    Matrix c = c0;
    matmul_add(c, a, b, alpha);
    EXPECT_LT(max_abs_diff(c, c0 + alpha * matmul(a, b)), 1e-10);
    Matrix ct = random_matrix(90, 50, rng);
    const Matrix ct0 = ct;
    matmul_tn_add(ct, a, matmul(a, b), alpha);  // a' (a b): 90 x 50
    EXPECT_LT(max_abs_diff(ct, ct0 + alpha * matmul_tn(a, matmul(a, b))), 1e-9);
    Matrix cn = c0;
    matmul_nt_add(cn, a, b.transposed(), alpha);
    EXPECT_LT(max_abs_diff(cn, c0 + alpha * matmul_nt(a, b.transposed())), 1e-10);
  }
}

TEST(DenseKernels, GramTnExactlySymmetricAndMatchesTn) {
  Rng rng(52);
  for (const auto& [m, n] : {std::pair<std::size_t, std::size_t>{150, 90}, {10, 6}}) {
    const Matrix a = random_matrix(m, n, rng);
    const Matrix g = gram_tn(a);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) ASSERT_EQ(g(i, j), g(j, i));
    EXPECT_LT(max_abs_diff(g, matmul_tn(a, a)), 1e-11 * static_cast<double>(m));
  }
}

TEST(DenseKernels, BlockedTransposeMatchesElementwise) {
  Rng rng(53);
  const Matrix a = random_matrix(101, 37, rng);
  const Matrix t = a.transposed();
  ASSERT_EQ(t.rows(), 37u);
  ASSERT_EQ(t.cols(), 101u);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) ASSERT_EQ(t(j, i), a(i, j));
}

TEST(DenseKernels, TiledProductsBitIdenticalAcrossThreadCounts) {
  Rng rng(54);
  const Matrix a = random_matrix(150, 170, rng);
  const Matrix b = random_matrix(170, 140, rng);
  set_thread_count(1);
  const Matrix c1 = matmul(a, b);
  const Matrix g1 = gram_tn(a);
  set_thread_count(4);
  const Matrix c4 = matmul(a, b);
  const Matrix g4 = gram_tn(a);
  set_thread_count(1);
  EXPECT_EQ(max_abs_diff(c1, c4), 0.0);
  EXPECT_EQ(max_abs_diff(g1, g4), 0.0);
}

TEST(DenseKernels, TallSkinnyPathBitIdenticalAcrossThreadCounts) {
  // The block-PCG shapes at the FD block size: the NN update runs over
  // fixed row chunks in parallel, the TN Gram product as one task, and
  // both must give the same bits at 1 and 4 threads, equal to the packed
  // path (forced by padding the narrow operand to 17 columns).
  Rng rng(58);
  const Matrix p = random_matrix(20480, 16, rng);
  const Matrix q = random_matrix(20480, 16, rng);
  const Matrix beta17 = random_matrix(16, 17, rng);
  const Matrix beta = beta17.block(0, 0, 16, 16);
  Matrix z1 = random_matrix(20480, 16, rng);
  Matrix z4 = z1;
  Matrix z17(20480, 17);
  for (std::size_t i = 0; i < z1.rows(); ++i)
    for (std::size_t j = 0; j < 16; ++j) z17(i, j) = z1(i, j);
  set_thread_count(1);
  matmul_add(z1, p, beta, 0.3);
  const Matrix g1 = matmul_tn(p, q);
  set_thread_count(4);
  matmul_add(z4, p, beta, 0.3);
  matmul_add(z17, p, beta17, 0.3);
  const Matrix g4 = matmul_tn(p, q);
  set_thread_count(1);
  const Matrix g17 = matmul_tn(p, Matrix::hcat(q, random_matrix(20480, 1, rng)));
  for (std::size_t i = 0; i < z1.rows(); ++i)
    for (std::size_t j = 0; j < 16; ++j) {
      ASSERT_EQ(z1(i, j), z4(i, j)) << i << "," << j;
      ASSERT_EQ(z1(i, j), z17(i, j)) << i << "," << j;
    }
  for (std::size_t i = 0; i < 16; ++i)
    for (std::size_t j = 0; j < 16; ++j) {
      ASSERT_EQ(g1(i, j), g4(i, j)) << i << "," << j;
      ASSERT_EQ(g1(i, j), g17(i, j)) << i << "," << j;
    }
}

// ---------------------------------------------------------------- cholesky

TEST(Cholesky, ReconstructsAndSolves) {
  Rng rng(5);
  const Matrix a = random_spd(12, rng);
  const Cholesky chol(a);
  const Matrix l = chol.lower();
  EXPECT_LT(max_abs_diff(matmul_nt(l, l), a), 1e-9);
  const Vector b = random_matrix(12, 1, rng).col(0);
  const Vector x = chol.solve(b);
  EXPECT_LT(norm2(matvec(a, x) - b), 1e-9 * norm2(b));
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  Matrix a = Matrix::identity(3);
  a(2, 2) = -1.0;
  EXPECT_THROW(Cholesky{a}, std::invalid_argument);
}

// ---------------------------------------------------------------- QR

TEST(QR, ThinQOrthonormalAndReconstructs) {
  Rng rng(6);
  const Matrix a = random_matrix(10, 4, rng);
  const QR qr(a);
  const Matrix q = qr.thin_q();
  const Matrix qtq = matmul_tn(q, q);
  EXPECT_LT(max_abs_diff(qtq, Matrix::identity(4)), 1e-12);
  EXPECT_LT(max_abs_diff(matmul(q, qr.r()), a), 1e-12);
}

TEST(QR, FullQOrthogonal) {
  Rng rng(7);
  const Matrix a = random_matrix(8, 3, rng);
  const Matrix q = QR(a).full_q();
  EXPECT_LT(max_abs_diff(matmul_tn(q, q), Matrix::identity(8)), 1e-12);
}

TEST(QR, LeastSquaresMatchesNormalEquations) {
  Rng rng(8);
  const Matrix a = random_matrix(12, 5, rng);
  const Vector b = random_matrix(12, 1, rng).col(0);
  const Vector x = QR(a).solve(b);
  // Residual must be orthogonal to range(A).
  const Vector r = matvec(a, x) - b;
  EXPECT_LT(norm_inf(matvec_t(a, r)), 1e-10);
}

TEST(QR, OrthonormalComplementCompletesBasis) {
  Rng rng(9);
  Matrix u = QR(random_matrix(7, 3, rng)).thin_q();
  const Matrix w = orthonormal_complement(u, 7);
  ASSERT_EQ(w.cols(), 4u);
  const Matrix full = Matrix::hcat(u, w);
  EXPECT_LT(max_abs_diff(matmul_tn(full, full), Matrix::identity(7)), 1e-12);
}

TEST(QR, OrthonormalComplementEdgeCases) {
  EXPECT_EQ(orthonormal_complement(Matrix(5, 0), 5).cols(), 5u);
  Rng rng(10);
  const Matrix u = QR(random_matrix(4, 4, rng)).thin_q();
  EXPECT_EQ(orthonormal_complement(u, 4).cols(), 0u);
}

// ---------------------------------------------------------------- SVD

TEST(Svd, ReconstructsTallMatrix) {
  Rng rng(11);
  const Matrix a = random_matrix(9, 4, rng);
  const Svd s = svd(a);
  Matrix usv(9, 4);
  for (std::size_t i = 0; i < 9; ++i)
    for (std::size_t j = 0; j < 4; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < 4; ++k) acc += s.u(i, k) * s.sigma[k] * s.v(j, k);
      usv(i, j) = acc;
    }
  EXPECT_LT(max_abs_diff(usv, a), 1e-10);
}

TEST(Svd, ReconstructsWideMatrix) {
  Rng rng(12);
  const Matrix a = random_matrix(3, 8, rng);
  const Svd s = svd(a);
  ASSERT_EQ(s.u.cols(), 3u);
  ASSERT_EQ(s.v.rows(), 8u);
  Matrix usv(3, 8);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 8; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < 3; ++k) acc += s.u(i, k) * s.sigma[k] * s.v(j, k);
      usv(i, j) = acc;
    }
  EXPECT_LT(max_abs_diff(usv, a), 1e-10);
}

TEST(Svd, SingularValuesSortedAndOrthonormalFactors) {
  Rng rng(13);
  const Matrix a = random_matrix(10, 6, rng);
  const Svd s = svd(a);
  for (std::size_t k = 0; k + 1 < s.sigma.size(); ++k) EXPECT_GE(s.sigma[k], s.sigma[k + 1]);
  EXPECT_LT(max_abs_diff(matmul_tn(s.u, s.u), Matrix::identity(6)), 1e-10);
  EXPECT_LT(max_abs_diff(matmul_tn(s.v, s.v), Matrix::identity(6)), 1e-10);
}

TEST(Svd, MatchesEigenvaluesOfGram) {
  Rng rng(14);
  const Matrix a = random_matrix(7, 5, rng);
  const Svd s = svd(a);
  const EigSym e = eig_sym(matmul_tn(a, a));
  // Largest eigenvalue of A'A equals sigma_max^2.
  EXPECT_NEAR(e.values[4], s.sigma[0] * s.sigma[0], 1e-8);
  EXPECT_NEAR(e.values[0], s.sigma[4] * s.sigma[4], 1e-8);
}

TEST(Svd, DetectsExactRankDeficiency) {
  // Rank-2 matrix: third column = sum of first two.
  Rng rng(15);
  Matrix a = random_matrix(6, 3, rng);
  for (std::size_t i = 0; i < 6; ++i) a(i, 2) = a(i, 0) + a(i, 1);
  const Svd s = svd(a);
  EXPECT_EQ(numerical_rank(s.sigma, 1e-10), 2u);
}

TEST(Svd, NumericalRankOfZeroMatrix) {
  const Svd s = svd(Matrix(4, 3));
  EXPECT_EQ(numerical_rank(s.sigma, 1e-2), 0u);
}

// ------------------------------------------------ QR-preconditioned SVD

TEST(Svd, QrPreconditionedMatchesJacobiOnTallMatrix) {
  Rng rng(60);
  const Matrix a = random_matrix(200, 24, rng);  // m >= 2n: QR path engaged
  const Svd fast = svd(a);
  const Svd ref = svd_jacobi(a);
  for (std::size_t j = 0; j < ref.sigma.size(); ++j)
    EXPECT_NEAR(fast.sigma[j], ref.sigma[j], 1e-12 * ref.sigma[0]);
  EXPECT_LT(max_abs_diff(matmul_tn(fast.u, fast.u), Matrix::identity(24)), 1e-10);
  EXPECT_LT(max_abs_diff(matmul_tn(fast.v, fast.v), Matrix::identity(24)), 1e-10);
  // U Sigma V' reconstructs A.
  Matrix us = fast.u;
  for (std::size_t i = 0; i < us.rows(); ++i)
    for (std::size_t j = 0; j < us.cols(); ++j) us(i, j) *= fast.sigma[j];
  EXPECT_LT(max_abs_diff(matmul_nt(us, fast.v), a), 1e-10);
}

TEST(Svd, QrPreconditionedMatchesJacobiOnWideMatrix) {
  Rng rng(61);
  const Matrix a = random_matrix(20, 170, rng);  // transposed tall path
  const Svd fast = svd(a);
  const Svd ref = svd_jacobi(a);
  for (std::size_t j = 0; j < ref.sigma.size(); ++j)
    EXPECT_NEAR(fast.sigma[j], ref.sigma[j], 1e-12 * ref.sigma[0]);
  Matrix us = fast.u;
  for (std::size_t i = 0; i < us.rows(); ++i)
    for (std::size_t j = 0; j < us.cols(); ++j) us(i, j) *= fast.sigma[j];
  EXPECT_LT(max_abs_diff(matmul_nt(us, fast.v), a), 1e-10);
}

TEST(Svd, QrPreconditionedDetectsRankDeficiency) {
  Rng rng(62);
  // Rank-5 tall matrix: 10 columns built from 5 independent ones.
  const Matrix base = random_matrix(300, 5, rng);
  const Matrix mix = random_matrix(5, 10, rng);
  const Matrix a = matmul(base, mix);
  const Svd s = svd(a);
  EXPECT_EQ(numerical_rank(s.sigma, 1e-10), 5u);
}

// ---------------------------------------------------------------- eig

TEST(EigSym, DiagonalizesAndIsOrthogonal) {
  Rng rng(16);
  const Matrix a = random_spd(9, rng);
  const EigSym e = eig_sym(a);
  const Matrix v = e.vectors;
  EXPECT_LT(max_abs_diff(matmul_tn(v, v), Matrix::identity(9)), 1e-10);
  // A v_k = lambda_k v_k.
  for (std::size_t k = 0; k < 9; ++k) {
    const Vector vk = v.col(k);
    const Vector av = matvec(a, vk);
    EXPECT_LT(norm2(av - e.values[k] * vk), 1e-8 * std::abs(e.values[k]));
  }
  for (std::size_t k = 0; k + 1 < 9; ++k) EXPECT_LE(e.values[k], e.values[k + 1]);
}

TEST(EigSym, TinyScaleMatrixStillDiagonalized) {
  // The convergence test is relative to ||A||: a non-diagonal SPD matrix
  // scaled to 1e-29 (a block-PCG Gram block at rounding level) has the
  // unscaled eigenvalues times 1e-29, not its own diagonal.
  Rng rng(17);
  const Matrix a = random_spd(6, rng);
  const EigSym ref = eig_sym(a);
  const EigSym tiny = eig_sym(1e-29 * a);
  for (std::size_t k = 0; k < 6; ++k)
    EXPECT_NEAR(tiny.values[k], 1e-29 * ref.values[k], 1e-12 * 1e-29 * std::abs(ref.values[k]))
        << k;
  EXPECT_LT(max_abs_diff(matmul_tn(tiny.vectors, tiny.vectors), Matrix::identity(6)), 1e-10);
}

// ---------------------------------------------------------------- LU

TEST(LU, SolvesGeneralSystem) {
  Rng rng(17);
  const Matrix a = random_matrix(10, 10, rng);
  const Vector b = random_matrix(10, 1, rng).col(0);
  const LU lu(a);
  ASSERT_FALSE(lu.singular());
  const Vector x = lu.solve(b);
  EXPECT_LT(norm2(matvec(a, x) - b), 1e-9 * norm2(b));
}

TEST(LU, DetectsSingularity) {
  Matrix a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;  // row 2 all zero
  const LU lu(a);
  EXPECT_TRUE(lu.singular());
  EXPECT_DOUBLE_EQ(lu.det(), 0.0);
}

TEST(LU, DeterminantOfKnownMatrix) {
  Matrix a(2, 2);
  a(0, 0) = 3.0;
  a(0, 1) = 1.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  EXPECT_NEAR(LU(a).det(), 10.0, 1e-12);
}

// ---------------------------------------------------------------- iterative

TEST(Pcg, SolvesSpdSystemUnpreconditioned) {
  Rng rng(18);
  const Matrix a = random_spd(30, rng);
  const Vector b = random_matrix(30, 1, rng).col(0);
  IterStats st;
  const Vector x = pcg([&](const Vector& v) { return matvec(a, v); }, b,
                       {.rel_tol = 1e-10, .max_iterations = 200}, &st);
  EXPECT_TRUE(st.converged);
  EXPECT_LT(norm2(matvec(a, x) - b), 1e-8 * norm2(b));
}

TEST(Pcg, PerfectPreconditionerConvergesInOneIteration) {
  Rng rng(19);
  const Matrix a = random_spd(20, rng);
  const Cholesky chol(a);
  const Vector b = random_matrix(20, 1, rng).col(0);
  IterStats st;
  pcg([&](const Vector& v) { return matvec(a, v); }, b, {.rel_tol = 1e-10, .max_iterations = 50},
      &st, [&](const Vector& r) { return chol.solve(r); });
  EXPECT_TRUE(st.converged);
  EXPECT_LE(st.iterations, 2u);
}

TEST(Pcg, ZeroRhsReturnsZero) {
  IterStats st;
  const Vector x =
      pcg([](const Vector& v) { return v; }, Vector(5), {.rel_tol = 1e-10}, &st);
  EXPECT_TRUE(st.converged);
  EXPECT_EQ(st.iterations, 0u);
  EXPECT_DOUBLE_EQ(norm2(x), 0.0);
}

TEST(PcgBlock, SolvesAllColumnsWithDeflation) {
  // Columns that converge at very different rates (an eigenvector RHS
  // converges in one iteration and then must be deflated out of the block)
  // plus an exact duplicate column; every column must still match the
  // direct solve.
  Rng rng(55);
  const Matrix a = random_spd(40, rng);
  const EigSym e = eig_sym(a);
  Matrix b(40, 5);
  b.set_col(0, e.vectors.col(0));            // converges immediately
  b.set_col(1, random_matrix(40, 1, rng).col(0));
  b.set_col(2, b.col(1));                    // duplicate: degenerate Gram
  b.set_col(3, random_matrix(40, 1, rng).col(0));
  // Column 4 stays zero: must solve to zero without breaking SPD solves.
  BlockIterStats st;
  const Matrix x = pcg_block([&](const Matrix& p) { return matmul(a, p); }, b,
                             {.rel_tol = 1e-9, .max_iterations = 300}, &st);
  EXPECT_TRUE(st.converged);
  const Cholesky chol(a);
  for (std::size_t j = 0; j < 4; ++j) {
    const Vector xj = x.col(j);
    const Vector ref = chol.solve(b.col(j));
    EXPECT_LT(norm2(xj - ref), 1e-8 * (1.0 + norm2(ref))) << "column " << j;
  }
  EXPECT_DOUBLE_EQ(norm2(x.col(4)), 0.0);
}

TEST(PcgBlock, ConsumesPreconditionerInterface) {
  // pcg_block takes a blockwise Preconditioner; with the exact inverse as
  // M^{-1} the whole block converges in O(1) iterations.
  Rng rng(56);
  const Matrix a = random_spd(30, rng);
  const Cholesky chol(a);
  const Matrix b = random_matrix(30, 4, rng);
  const FunctionPreconditioner pre([&](const Matrix& r) { return chol.solve(r); });
  BlockIterStats st;
  const Matrix x = pcg_block([&](const Matrix& p) { return matmul(a, p); }, b,
                             {.rel_tol = 1e-10, .max_iterations = 50}, &st, &pre);
  EXPECT_TRUE(st.converged);
  EXPECT_LE(st.iterations, 3u);
  EXPECT_LT((matmul(a, x) - b).max_abs(), 1e-7 * b.max_abs());
}

TEST(Preconditioner, SingleVectorApplyWrapsApplyMany) {
  Rng rng(57);
  const Matrix m = random_spd(12, rng);
  const FunctionPreconditioner pre([&](const Matrix& r) { return matmul(m, r); });
  const Vector v = random_matrix(12, 1, rng).col(0);
  const Vector z = pre.apply(v);
  EXPECT_LT(norm2(z - matvec(m, v)), 1e-14 * norm2(z));

  // The output contract: every entry of the caller's NaN-prefilled block is
  // overwritten, each column equals the single-vector apply bit for bit,
  // and 1 and 4 threads agree; a wrongly shaped output is rejected.
  const Matrix r = random_matrix(12, 5, rng);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Matrix z1(12, 5, nan), z4(12, 5, nan);
  pre.apply_many(r, z1);
  set_thread_count(4);
  pre.apply_many(r, z4);
  set_thread_count(1);
  for (std::size_t j = 0; j < r.cols(); ++j) {
    const Vector zj = pre.apply(r.col(j));
    for (std::size_t i = 0; i < r.rows(); ++i) {
      ASSERT_EQ(z1(i, j), zj[i]) << i << "," << j;
      ASSERT_EQ(z4(i, j), zj[i]) << i << "," << j;
    }
  }
  Matrix wrong(12, 4);
  EXPECT_THROW(pre.apply_many(r, wrong), std::invalid_argument);
  const FunctionPreconditioner bad([](const Matrix& rr) { return Matrix(rr.rows(), 1); });
  EXPECT_THROW(bad.apply_many(r, z1), std::invalid_argument);
}

TEST(Gmres, SolvesNonsymmetricSystem) {
  Rng rng(20);
  Matrix a = random_matrix(25, 25, rng);
  for (std::size_t i = 0; i < 25; ++i) a(i, i) += 10.0;  // make well-conditioned
  const Vector b = random_matrix(25, 1, rng).col(0);
  IterStats st;
  const Vector x = gmres([&](const Vector& v) { return matvec(a, v); }, b, 25,
                         {.rel_tol = 1e-10, .max_iterations = 100}, &st);
  EXPECT_TRUE(st.converged);
  EXPECT_LT(norm2(matvec(a, x) - b), 1e-7 * norm2(b));
}

TEST(Gmres, RestartedConvergesToo) {
  Rng rng(21);
  Matrix a = random_matrix(30, 30, rng);
  for (std::size_t i = 0; i < 30; ++i) a(i, i) += 15.0;
  const Vector b = random_matrix(30, 1, rng).col(0);
  IterStats st;
  const Vector x = gmres([&](const Vector& v) { return matvec(a, v); }, b, 8,
                         {.rel_tol = 1e-9, .max_iterations = 400}, &st);
  EXPECT_LT(norm2(matvec(a, x) - b), 1e-6 * norm2(b));
}

// ------------------------------------------------- parameterized properties

class FactorizationSweep : public ::testing::TestWithParam<int> {};

TEST_P(FactorizationSweep, SvdReconstructionAcrossShapes) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const std::size_t m = 2 + rng.below(12);
  const std::size_t n = 2 + rng.below(12);
  const Matrix a = random_matrix(m, n, rng);
  const Svd s = svd(a);
  const std::size_t k = std::min(m, n);
  double err = 0.0;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t t = 0; t < k; ++t) acc += s.u(i, t) * s.sigma[t] * s.v(j, t);
      err = std::max(err, std::abs(acc - a(i, j)));
    }
  EXPECT_LT(err, 1e-9) << "m=" << m << " n=" << n;
}

TEST_P(FactorizationSweep, CholeskyQrLuAgreeOnSpdSolve) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(100 + seed));
  const std::size_t n = 2 + rng.below(15);
  const Matrix a = random_spd(n, rng);
  const Vector b = random_matrix(n, 1, rng).col(0);
  const Vector x1 = Cholesky(a).solve(b);
  const Vector x2 = LU(a).solve(b);
  const Vector x3 = QR(a).solve(b);
  EXPECT_LT(norm2(x1 - x2), 1e-8 * (1.0 + norm2(x1)));
  EXPECT_LT(norm2(x1 - x3), 1e-8 * (1.0 + norm2(x1)));
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, FactorizationSweep, ::testing::Range(0, 12));

}  // namespace
}  // namespace subspar

namespace subspar {
namespace {

TEST(Svd, OneByOneMatrix) {
  Matrix a(1, 1);
  a(0, 0) = -3.0;
  const Svd s = svd(a);
  EXPECT_DOUBLE_EQ(s.sigma[0], 3.0);
  EXPECT_DOUBLE_EQ(s.u(0, 0) * s.sigma[0] * s.v(0, 0), -3.0);
}

TEST(Svd, RejectsEmptyMatrix) { EXPECT_THROW(svd(Matrix(0, 0)), std::invalid_argument); }

TEST(Gmres, MatchesCholeskyOnSpdSystem) {
  Rng rng(40);
  const Matrix a = random_spd(20, rng);
  const Vector b = random_matrix(20, 1, rng).col(0);
  IterStats st;
  const Vector x = gmres([&](const Vector& v) { return matvec(a, v); }, b, 20,
                         {.rel_tol = 1e-12, .max_iterations = 100}, &st);
  EXPECT_LT(norm2(x - Cholesky(a).solve(b)), 1e-8 * norm2(b));
}

TEST(Cholesky, LogDetMatchesLuDeterminant) {
  Rng rng(41);
  const Matrix a = random_spd(8, rng);
  EXPECT_NEAR(Cholesky(a).log_det(), std::log(LU(a).det()), 1e-9);
}

TEST(Matrix, TransposeIsInvolution) {
  Rng rng(42);
  const Matrix a = random_matrix(5, 9, rng);
  EXPECT_LT((a.transposed().transposed() - a).max_abs(), 0.0 + 1e-300);
}

TEST(Matrix, ScalarMultiplyAndSubtract) {
  Matrix a(2, 2, 1.0);
  const Matrix b = 3.0 * a - a;
  EXPECT_DOUBLE_EQ(b(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(b.frobenius_norm(), 4.0);
}

TEST(Pcg, DetectsNonSpdOperator) {
  // An indefinite operator must trip the SPD invariant, not loop silently.
  Matrix a = Matrix::identity(4);
  a(2, 2) = -1.0;
  Vector b(4, 1.0);
  EXPECT_THROW(pcg([&](const Vector& v) { return matvec(a, v); }, b,
                   {.rel_tol = 1e-10, .max_iterations = 50}, nullptr),
               std::logic_error);
}

}  // namespace
}  // namespace subspar
