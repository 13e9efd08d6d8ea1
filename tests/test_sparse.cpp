// Tests for CSR sparse matrices, the batched SpMM engine, and the IC(0)
// preconditioner.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "linalg/cholesky.hpp"
#include "linalg/ic0.hpp"
#include "linalg/iterative.hpp"
#include "linalg/sparse.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace subspar {
namespace {

// 1-D resistor-chain Laplacian with both ends grounded through g: SPD, the
// simplest relative of the substrate FD matrix.
SparseMatrix chain_laplacian(std::size_t n, double g_end) {
  SparseBuilder b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double d = 0.0;
    if (i > 0) {
      b.add(i, i - 1, -1.0);
      d += 1.0;
    }
    if (i + 1 < n) {
      b.add(i, i + 1, -1.0);
      d += 1.0;
    }
    if (i == 0 || i + 1 == n) d += g_end;
    b.add(i, i, d);
  }
  return SparseMatrix(b);
}

TEST(Sparse, BuildSumsDuplicatesAndSorts) {
  SparseBuilder b(2, 3);
  b.add(0, 2, 1.0);
  b.add(0, 0, 2.0);
  b.add(0, 2, 3.0);  // duplicate, sums to 4
  b.add(1, 1, 5.0);
  const SparseMatrix a(b);
  EXPECT_EQ(a.nnz(), 3u);
  const Matrix d = a.to_dense();
  EXPECT_DOUBLE_EQ(d(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(d(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 5.0);
}

TEST(Sparse, DropTolRemovesCancelledEntries) {
  SparseBuilder b(1, 2);
  b.add(0, 0, 1.0);
  b.add(0, 0, -1.0);  // cancels to zero
  b.add(0, 1, 2.0);
  const SparseMatrix a(b);
  EXPECT_EQ(a.nnz(), 1u);
}

TEST(Sparse, ApplyMatchesDense) {
  Rng rng(1);
  SparseBuilder b(6, 4);
  for (int t = 0; t < 10; ++t)
    b.add(rng.below(6), rng.below(4), rng.normal());
  const SparseMatrix a(b);
  const Matrix d = a.to_dense();
  Vector x(4);
  for (auto& v : x) v = rng.normal();
  EXPECT_LT(norm2(a.apply(x) - matvec(d, x)), 1e-14);
  Vector y(6);
  for (auto& v : y) v = rng.normal();
  EXPECT_LT(norm2(a.apply_t(y) - matvec_t(d, y)), 1e-14);
}

TEST(Sparse, TransposeIsInvolution) {
  Rng rng(2);
  SparseBuilder b(5, 7);
  for (int t = 0; t < 12; ++t) b.add(rng.below(5), rng.below(7), rng.normal());
  const SparseMatrix a(b);
  const SparseMatrix att = a.transposed().transposed();
  EXPECT_LT((a.to_dense() - att.to_dense()).max_abs(), 1e-15);
}

TEST(Sparse, FromDenseRespectsThreshold) {
  Matrix d(2, 2);
  d(0, 0) = 1.0;
  d(0, 1) = 1e-8;
  d(1, 1) = -0.5;
  const SparseMatrix a = SparseMatrix::from_dense(d, 1e-6);
  EXPECT_EQ(a.nnz(), 2u);
}

TEST(Sparse, SparsityFactorMatchesPaperDefinition) {
  Matrix d(4, 4);
  d(0, 0) = d(1, 1) = 1.0;  // 2 nonzeros of 16 entries -> sparsity 8
  const SparseMatrix a = SparseMatrix::from_dense(d);
  EXPECT_DOUBLE_EQ(a.sparsity_factor(), 8.0);
}

TEST(Sparse, CoordinatesListAllNonzeros) {
  SparseBuilder b(3, 3);
  b.add(0, 1, 1.0);
  b.add(2, 0, 1.0);
  const SparseMatrix a(b);
  const auto coords = a.coordinates();
  ASSERT_EQ(coords.size(), 2u);
  EXPECT_EQ(coords[0], (std::pair<std::size_t, std::size_t>{0, 1}));
  EXPECT_EQ(coords[1], (std::pair<std::size_t, std::size_t>{2, 0}));
}

TEST(Ic0, ExactForTridiagonalSpd) {
  // IC(0) of a tridiagonal matrix is the exact Cholesky factor (no fill-in
  // exists), so the preconditioner solve must be a direct solve.
  const SparseMatrix a = chain_laplacian(20, 1.0);
  const SparseMatrix la = ic0(a);
  Rng rng(3);
  Vector b(20);
  for (auto& v : b) v = rng.normal();
  const Vector x = ic0_solve(la, b);
  EXPECT_LT(norm2(a.apply(x) - b), 1e-10 * norm2(b));
}

TEST(Ic0, FactorHasNoFillIn) {
  const SparseMatrix a = chain_laplacian(10, 0.5);
  const SparseMatrix la = ic0(a);
  // Lower triangle of A has 10 diagonal + 9 subdiagonal entries.
  EXPECT_EQ(la.nnz(), 19u);
}

TEST(Ic0, PreconditionsPcgOn2dGrid) {
  // 2-D 5-point Laplacian, anchored: compare PCG iteration counts with and
  // without IC(0). The preconditioner must help.
  const std::size_t nx = 16, ny = 16, n = nx * ny;
  SparseBuilder bld(n, n);
  auto id = [&](std::size_t x, std::size_t y) { return x + nx * y; };
  for (std::size_t y = 0; y < ny; ++y)
    for (std::size_t x = 0; x < nx; ++x) {
      double d = 1e-3;  // weak anchor keeps it SPD
      auto nb = [&](std::size_t xx, std::size_t yy) {
        bld.add(id(x, y), id(xx, yy), -1.0);
        d += 1.0;
      };
      if (x > 0) nb(x - 1, y);
      if (x + 1 < nx) nb(x + 1, y);
      if (y > 0) nb(x, y - 1);
      if (y + 1 < ny) nb(x, y + 1);
      bld.add(id(x, y), id(x, y), d);
    }
  const SparseMatrix a(bld);
  const SparseMatrix la = ic0(a);
  Rng rng(4);
  Vector b(n);
  for (auto& v : b) v = rng.normal();
  const IterOptions opt{.rel_tol = 1e-8, .max_iterations = 2000};
  IterStats plain, prec;
  pcg([&](const Vector& v) { return a.apply(v); }, b, opt, &plain);
  pcg([&](const Vector& v) { return a.apply(v); }, b, opt, &prec,
      [&](const Vector& r) { return ic0_solve(la, r); });
  EXPECT_TRUE(prec.converged);
  EXPECT_LT(prec.iterations, plain.iterations);
}

class ChainSweep : public ::testing::TestWithParam<int> {};

TEST_P(ChainSweep, Ic0SolveMatchesDenseCholesky) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  const SparseMatrix a = chain_laplacian(n, 2.0);
  const SparseMatrix la = ic0(a);
  const Cholesky chol(a.to_dense());
  Rng rng(5 + n);
  Vector b(n);
  for (auto& v : b) v = rng.normal();
  EXPECT_LT(norm2(ic0_solve(la, b) - chol.solve(b)), 1e-9 * norm2(b));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChainSweep, ::testing::Values(2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace subspar

namespace subspar {
namespace {

class RandomSparseSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomSparseSweep, ApplyAndTransposeApplyMatchDense) {
  Rng rng(200 + GetParam());
  const std::size_t rows = 2 + rng.below(20), cols = 2 + rng.below(20);
  SparseBuilder bld(rows, cols);
  const int entries = 1 + static_cast<int>(rng.below(3 * rows));
  for (int t = 0; t < entries; ++t) bld.add(rng.below(rows), rng.below(cols), rng.normal());
  const SparseMatrix a(bld);
  const Matrix d = a.to_dense();
  Vector x(cols), y(rows);
  for (auto& v : x) v = rng.normal();
  for (auto& v : y) v = rng.normal();
  ASSERT_LT(norm2(a.apply(x) - matvec(d, x)), 1e-12);
  ASSERT_LT(norm2(a.apply_t(y) - matvec_t(d, y)), 1e-12);
  // <Ax, y> == <x, A'y>.
  ASSERT_NEAR(dot(a.apply(x), y), dot(x, a.apply_t(y)), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Random, RandomSparseSweep, ::testing::Range(0, 8));

TEST(Sparse, FromCsrAdoptsArraysAndRejectsBrokenOnes) {
  const SparseMatrix a = SparseMatrix::from_csr(2, 3, {0, 2, 3}, {0, 2, 1}, {2.0, 4.0, 5.0});
  EXPECT_EQ(a.nnz(), 3u);
  const Matrix d = a.to_dense();
  EXPECT_DOUBLE_EQ(d(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(d(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 5.0);
  // Columns out of order, a duplicate, a column out of range, a short rowptr.
  EXPECT_THROW(SparseMatrix::from_csr(1, 3, {0, 2}, {2, 0}, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(SparseMatrix::from_csr(1, 3, {0, 2}, {1, 1}, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(SparseMatrix::from_csr(1, 3, {0, 1}, {3}, {1.0}), std::invalid_argument);
  EXPECT_THROW(SparseMatrix::from_csr(2, 3, {0, 1}, {0}, {1.0}), std::invalid_argument);
}

TEST(Sparse, EmptyMatrixBehaves) {
  const SparseMatrix a(SparseBuilder(3, 3));
  EXPECT_EQ(a.nnz(), 0u);
  EXPECT_DOUBLE_EQ(a.sparsity_factor(), 0.0);
  EXPECT_DOUBLE_EQ(norm2(a.apply(Vector(3, 1.0))), 0.0);
}

// ------------------------------------------------- batched SpMM engine

namespace {

SparseMatrix random_sparse(std::size_t rows, std::size_t cols, Rng& rng) {
  SparseBuilder b(rows, cols);
  const int entries = 1 + static_cast<int>(rng.below(4 * rows));
  for (int t = 0; t < entries; ++t) b.add(rng.below(rows), rng.below(cols), rng.normal());
  return SparseMatrix(b);
}

// 2-D 5-point Laplacian with a weak anchor: SPD, structurally symmetric.
SparseMatrix grid2d_laplacian(std::size_t nx, std::size_t ny) {
  SparseBuilder bld(nx * ny, nx * ny);
  auto id = [&](std::size_t x, std::size_t y) { return x + nx * y; };
  for (std::size_t y = 0; y < ny; ++y)
    for (std::size_t x = 0; x < nx; ++x) {
      double d = 1e-3;
      auto nb = [&](std::size_t xx, std::size_t yy) {
        bld.add(id(x, y), id(xx, yy), -1.0);
        d += 1.0;
      };
      if (x > 0) nb(x - 1, y);
      if (x + 1 < nx) nb(x + 1, y);
      if (y > 0) nb(x, y - 1);
      if (y + 1 < ny) nb(x, y + 1);
      bld.add(id(x, y), id(x, y), d);
    }
  return SparseMatrix(bld);
}

}  // namespace

TEST(SpMM, ApplyManyBitIdenticalToSingleApplies) {
  // The engine contract: batched columns are bit-identical to one apply()
  // per column (same FMA-contractable reduction per output entry), in the
  // returning form and in the output form, which overwrites every entry of
  // the caller's NaN-prefilled block and rejects a wrongly shaped one.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int trial = 0; trial < 6; ++trial) {
    Rng rng(300 + trial);
    const std::size_t rows = 2 + rng.below(40), cols = 2 + rng.below(40);
    const SparseMatrix a = random_sparse(rows, cols, rng);
    const std::size_t k = 1 + rng.below(9);
    Matrix x(cols, k);
    for (std::size_t i = 0; i < cols; ++i)
      for (std::size_t j = 0; j < k; ++j) x(i, j) = rng.normal();
    const Matrix y = a.apply_many(x);
    ASSERT_EQ(y.rows(), rows);
    Matrix out(rows, k, nan);
    a.apply_many(x, out);
    for (std::size_t j = 0; j < k; ++j) {
      const Vector yj = a.apply(x.col(j));
      for (std::size_t i = 0; i < rows; ++i) {
        ASSERT_EQ(y(i, j), yj[i]) << "trial " << trial << " col " << j;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(out(i, j)), std::bit_cast<std::uint64_t>(yj[i]))
            << "trial " << trial << " col " << j;
      }
    }
    Matrix short_rows(rows - 1, k), wide(rows, k + 1);
    EXPECT_THROW(a.apply_many(x, short_rows), std::invalid_argument);
    EXPECT_THROW(a.apply_many(x, wide), std::invalid_argument);
  }
}

TEST(SpMM, ApplyTManyBitIdenticalToSingleApplies) {
  for (int trial = 0; trial < 6; ++trial) {
    Rng rng(330 + trial);
    const std::size_t rows = 2 + rng.below(40), cols = 2 + rng.below(40);
    const SparseMatrix a = random_sparse(rows, cols, rng);
    const std::size_t k = 1 + rng.below(9);
    Matrix x(rows, k);
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t j = 0; j < k; ++j)
        x(i, j) = rng.below(4) == 0 ? 0.0 : rng.normal();  // exercise the zero skip
    const Matrix y = a.apply_t_many(x);
    for (std::size_t j = 0; j < k; ++j) {
      const Vector yj = a.apply_t(x.col(j));
      for (std::size_t i = 0; i < cols; ++i)
        ASSERT_EQ(y(i, j), yj[i]) << "trial " << trial << " col " << j;
    }
  }
}

TEST(SpMM, BitIdenticalAcrossThreadCounts) {
  Rng rng(340);
  const SparseMatrix a = grid2d_laplacian(24, 24);
  Matrix x(a.cols(), 7);
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (std::size_t j = 0; j < x.cols(); ++j) x(i, j) = rng.normal();
  set_thread_count(1);
  const Matrix y1 = a.apply_many(x);
  const Matrix t1 = a.apply_t_many(x);
  set_thread_count(4);
  const Matrix y4 = a.apply_many(x);
  const Matrix t4 = a.apply_t_many(x);
  set_thread_count(1);
  EXPECT_EQ((y1 - y4).max_abs(), 0.0);
  EXPECT_EQ((t1 - t4).max_abs(), 0.0);
}

TEST(SpMM, ZeroColumnAndEmptyInputs) {
  const SparseMatrix a = grid2d_laplacian(4, 4);
  const Matrix y = a.apply_many(Matrix(a.cols(), 0));
  EXPECT_EQ(y.cols(), 0u);
  EXPECT_EQ(y.rows(), a.rows());
}

// ------------------------------------------------- guards (empty inputs)

TEST(Sparse, FromDenseEmptyAndAllDroppedInputs) {
  EXPECT_EQ(SparseMatrix::from_dense(Matrix()).nnz(), 0u);
  EXPECT_EQ(SparseMatrix::from_dense(Matrix(0, 5)).nnz(), 0u);
  EXPECT_EQ(SparseMatrix::from_dense(Matrix(5, 0)).nnz(), 0u);
  Matrix small(3, 3, 1e-9);
  const SparseMatrix dropped = SparseMatrix::from_dense(small, 1e-6);
  EXPECT_EQ(dropped.nnz(), 0u);
  EXPECT_DOUBLE_EQ(dropped.sparsity_factor(), 0.0);  // no division by zero
  EXPECT_DOUBLE_EQ(SparseMatrix::from_dense(Matrix()).sparsity_factor(), 0.0);
}

// ------------------------------------------------- batched IC(0) sweeps

TEST(Ic0Sweeps, SolveManyBitIdenticalToSingleColumns) {
  const SparseMatrix a = grid2d_laplacian(12, 9);
  const Ic0Factor f = ic0_factor(a);
  Rng rng(370);
  Matrix b(a.rows(), 6);
  for (std::size_t i = 0; i < b.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) b(i, j) = rng.normal();
  const Matrix x = ic0_solve_many(f, b);
  for (std::size_t j = 0; j < b.cols(); ++j) {
    const Vector xj = ic0_solve(f, b.col(j));
    for (std::size_t i = 0; i < b.rows(); ++i) ASSERT_EQ(x(i, j), xj[i]) << "col " << j;
  }
}

TEST(Ic0Sweeps, MatchesSerialReferenceSolve) {
  // The batched sweeps on the prepared factor must compute the same
  // triangular solves as the single-vector ic0_solve on L (to rounding).
  const SparseMatrix a = grid2d_laplacian(10, 10);
  const SparseMatrix la = ic0(a);
  const Ic0Factor f = ic0_factor(a);
  Rng rng(371);
  Vector b(a.rows());
  for (auto& v : b) v = rng.normal();
  const Vector reference = ic0_solve(la, b);
  const Vector swept = ic0_solve(f, b);
  EXPECT_LT(norm2(reference - swept), 1e-12 * norm2(reference));
}

TEST(Ic0Sweeps, SolveManyBitIdenticalAcrossThreadCounts) {
  const SparseMatrix a = grid2d_laplacian(16, 16);
  const Ic0Factor f = ic0_factor(a);
  Rng rng(372);
  Matrix b(a.rows(), 5);
  for (std::size_t i = 0; i < b.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) b(i, j) = rng.normal();
  set_thread_count(1);
  const Matrix x1 = ic0_solve_many(f, b);
  set_thread_count(4);
  const Matrix x4 = ic0_solve_many(f, b);
  set_thread_count(1);
  EXPECT_EQ((x1 - x4).max_abs(), 0.0);
}

TEST(Ic0Preconditioner, PreconditionsBetterThanPlainCg) {
  // The natural-order factor behind the Preconditioner interface must cut
  // PCG's iteration count below plain CG's.
  const SparseMatrix a = grid2d_laplacian(20, 20);
  Rng rng(373);
  Vector b(a.rows());
  for (auto& v : b) v = rng.normal();
  const IterOptions opt{.rel_tol = 1e-10, .max_iterations = 2000};
  const LinearOp op = [&](const Vector& v) { return a.apply(v); };
  IterStats plain, natural;
  pcg(op, b, opt, &plain);
  const Ic0Preconditioner nat(a);
  pcg(op, b, opt, &natural, [&](const Vector& r) { return nat.apply(r); });
  EXPECT_TRUE(natural.converged);
  EXPECT_LT(natural.iterations, plain.iterations);
}

TEST(Ic0Preconditioner, ApplyManyMatchesApplyColumns) {
  // The Preconditioner output contract: apply_many overwrites every entry of
  // the caller's (NaN-prefilled) block, each column equals the single-vector
  // apply bit for bit, and the block is bit-identical at 1 and 4 threads.
  const SparseMatrix a = grid2d_laplacian(9, 11);
  Rng rng(374);
  Matrix r(a.rows(), 4);
  for (std::size_t i = 0; i < r.rows(); ++i)
    for (std::size_t j = 0; j < r.cols(); ++j) r(i, j) = rng.normal();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Ic0Preconditioner m(a);
  Matrix z(r.rows(), r.cols(), nan), z4(r.rows(), r.cols(), nan);
  m.apply_many(r, z);
  set_thread_count(4);
  m.apply_many(r, z4);
  set_thread_count(1);
  for (std::size_t j = 0; j < r.cols(); ++j) {
    const Vector zj = m.apply(r.col(j));
    for (std::size_t i = 0; i < r.rows(); ++i) {
      ASSERT_EQ(z(i, j), zj[i]) << i << "," << j;
      ASSERT_EQ(z4(i, j), zj[i]) << i << "," << j;
    }
  }
  Matrix wrong(r.rows(), r.cols() + 1);
  EXPECT_THROW(m.apply_many(r, wrong), std::invalid_argument);
}

TEST(Sparse, RowIterationMatchesCoordinates) {
  SparseBuilder b(4, 4);
  b.add(1, 2, 5.0);
  b.add(3, 0, -1.0);
  b.add(1, 0, 2.0);
  const SparseMatrix a(b);
  std::size_t count = 0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t k = a.row_begin(i); k < a.row_end(i); ++k) {
      ++count;
      if (i == 1 && a.col_index(k) == 2) {
        EXPECT_DOUBLE_EQ(a.value(k), 5.0);
      }
    }
  EXPECT_EQ(count, a.coordinates().size());
}

}  // namespace
}  // namespace subspar
