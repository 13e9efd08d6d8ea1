// Tests for the dense linear-algebra substrate: vector/matrix kernels and
// every factorization, including randomized property sweeps (TEST_P).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "linalg/cholesky.hpp"
#include "linalg/eig_sym.hpp"
#include "linalg/iterative.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "support/function_preconditioner.hpp"
#include "support/lu.hpp"
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

// Cholesky::solve(Vector) before solve_block existed: one column over
// lower(), y and x in separate vectors. solve(Vector) is now solve_block at
// k = 1, so it cannot serve as its own reference.
Vector parent_substitution(const Matrix& l, const Vector& b) {
  const std::size_t n = l.rows();
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s / l(i, i);
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
  return x;
}

TEST(Cholesky, BlockSolveMatchesParentSubstitutionBitwise) {
  // solve_block serves solve(Vector), solve(Matrix) and the surface
  // solver's block-Jacobi rows; every column must keep the per-column
  // substitution's bits at any width, at a row offset inside a taller
  // block, into an output full of NaN, and in place.
  Rng rng(61);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t n = 1; n <= 9; ++n) {
    const Cholesky chol(random_spd(n, rng));
    for (std::size_t k = 1; k <= 17; ++k) {
      const Matrix b = random_matrix(n, k, rng);
      Matrix ref(n, k);
      for (std::size_t j = 0; j < k; ++j)
        ref.set_col(j, parent_substitution(chol.lower(), b.col(j)));
      // Entries of rows [row0, row0 + n) of `got` whose bits differ from ref.
      const auto mismatches = [&](const Matrix& got, std::size_t row0) {
        std::size_t bad = 0;
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = 0; j < k; ++j)
            bad += std::bit_cast<std::uint64_t>(got(row0 + i, j)) !=
                   std::bit_cast<std::uint64_t>(ref(i, j));
        return bad;
      };
      const std::string at = " n=" + std::to_string(n) + " k=" + std::to_string(k);

      Matrix x(n, k, nan);
      chol.solve_block(b.row_ptr(0), x.row_ptr(0), k);
      EXPECT_EQ(mismatches(x, 0), 0u) << "solve_block" << at;
      EXPECT_EQ(mismatches(chol.solve(b), 0), 0u) << "solve(Matrix)" << at;
      Matrix by_vector(n, k);
      for (std::size_t j = 0; j < k; ++j) by_vector.set_col(j, chol.solve(b.col(j)));
      EXPECT_EQ(mismatches(by_vector, 0), 0u) << "solve(Vector)" << at;
      Matrix in_place = b;
      chol.solve_block(in_place.row_ptr(0), in_place.row_ptr(0), k);
      EXPECT_EQ(mismatches(in_place, 0), 0u) << "in place" << at;

      // Rows [3, 3 + n) of a taller block; the rows around them stay NaN.
      const std::size_t row0 = 3, tall = n + 5;
      Matrix bt = random_matrix(tall, k, rng);
      bt.set_block(row0, 0, b);
      Matrix xt(tall, k, nan);
      chol.solve_block(bt.row_ptr(row0), xt.row_ptr(row0), k);
      EXPECT_EQ(mismatches(xt, row0), 0u) << "row offset" << at;
      for (std::size_t i = 0; i < tall; ++i) {
        if (i >= row0 && i < row0 + n) continue;
        for (std::size_t j = 0; j < k; ++j) ASSERT_TRUE(std::isnan(xt(i, j))) << i << at;
      }
    }
  }
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
  // The operator checks the output-block contract (y arrives sized for the
  // product) and writes every entry of y where it lies.
  const LinearOpMany op = [&](const Matrix& p, Matrix& y) {
    ASSERT_EQ(y.rows(), a.rows());
    ASSERT_EQ(y.cols(), p.cols());
    const Matrix ap = matmul(a, p);
    for (std::size_t i = 0; i < y.rows(); ++i)
      for (std::size_t j = 0; j < y.cols(); ++j) y(i, j) = ap(i, j);
  };
  const IterOptions opt{.rel_tol = 1e-9, .max_iterations = 300};
  BlockIterStats st;
  const Matrix x = pcg_block(op, b, opt, &st);
  EXPECT_TRUE(st.converged);
  const Cholesky chol(a);
  for (std::size_t j = 0; j < 4; ++j) {
    const Vector xj = x.col(j);
    const Vector ref = chol.solve(b.col(j));
    EXPECT_LT(norm2(xj - ref), 1e-8 * (1.0 + norm2(ref))) << "column " << j;
  }
  EXPECT_DOUBLE_EQ(norm2(x.col(4)), 0.0);

  // The same solves through one PcgBlockScratch: first a wider one, then
  // this deflating one twice. Whatever shapes and contents the blocks keep
  // from the solve before, each result equals its cold call's bit for bit.
  const Matrix wide = random_matrix(40, 9, rng);
  BlockIterStats wide_st;
  const Matrix wide_x = pcg_block(op, wide, opt, &wide_st);
  EXPECT_TRUE(wide_st.converged);
  const auto expect_bitwise = [](const Matrix& got, const Matrix& ref, const char* what) {
    ASSERT_EQ(got.rows(), ref.rows());
    ASSERT_EQ(got.cols(), ref.cols());
    for (std::size_t i = 0; i < ref.rows(); ++i)
      for (std::size_t j = 0; j < ref.cols(); ++j)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got(i, j)), std::bit_cast<std::uint64_t>(ref(i, j)))
            << what << " (" << i << "," << j << ")";
  };
  PcgBlockScratch scratch;
  BlockIterStats warm_st;
  expect_bitwise(pcg_block(op, wide, opt, &warm_st, nullptr, &scratch), wide_x, "wide");
  EXPECT_EQ(warm_st.iterations, wide_st.iterations);
  for (const char* what : {"deflating after wide", "deflating after deflating"}) {
    expect_bitwise(pcg_block(op, b, opt, &warm_st, nullptr, &scratch), x, what);
    EXPECT_EQ(warm_st.iterations, st.iterations) << what;
  }
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
  const Matrix x = pcg_block([&](const Matrix& p, Matrix& y) { y = matmul(a, p); }, b,
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
