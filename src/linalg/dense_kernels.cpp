// Blocked dense-kernel core behind the matmul family (see matrix.hpp).
//
// Layout is the classic shared-packing GEMM scheme, in three phases:
//  1. A is packed into MR-row strips and B into NR-column strips, each strip
//     spanning the full inner dimension, zero-padded to the register tile.
//     Each strip is packed by exactly one util/parallel task (disjoint
//     output slots). Packing also absorbs the transposed operand layouts,
//     so one micro-kernel serves NN / TN / NT.
//  2. The output C is partitioned into fixed TILE_M x TILE_N tiles, each
//     owned by exactly one task.
//  3. Inside a tile, every MR x NR register block accumulates over the full
//     inner dimension from the packed strips (unit-stride, k-unrolled) and
//     is added into C once, scaled by alpha.
//
// Every C element is written by exactly one task and its accumulation runs
// in fixed ascending-k order, so results are bit-identical for any
// SUBSPAR_THREADS value.
//
// Products too small to amortize packing fall through to the naive
// streaming loops (the dispatch depends only on shapes, never on the
// thread count, so determinism is unaffected).
//
// Tall-skinny products above that threshold skip packing too: a TN product
// whose output is at most 16 x 16 (the block-Krylov Gram products) and an
// NN product whose right operand is at most 16 x 16 (the block direction
// and iterate updates). Packing would copy the whole tall operand into
// strips to produce one small tile; the row-streaming kernels
// (KernelOps::gemm_tn_tall_f64 / gemm_nn_tall_f64) read it in place
// instead. They are bit-identical to the packed path: each output is the
// same ascending-depth multiply-add chain from zero, contracted exactly as
// gemm_f64 is, and the final C += alpha * acc is the same store_tile_row
// below, in this baseline-flag translation unit (GCC before 14 fuses
// autovectorized loops in the -mfma units despite -ffp-contract=off, so it
// cannot move into the backend). The TN chain runs as one task, like the
// single output tile it replaces; NN rows split into fixed TALL_ROWS chunks.
// The MR x NR register block itself lives in the runtime-dispatched kernel
// backend (linalg/backend.hpp): this file owns packing, tiling, and
// dispatch; KernelOps::gemm_f64 owns the inner loop.
#include <algorithm>
#include <cstddef>
#include <vector>

#include "linalg/backend.hpp"
#include "linalg/matrix.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace subspar {
namespace {

enum class Op { NN, TN, NT };  // which operand(s) the packing reads transposed

constexpr std::size_t MR = 4;       // register tile rows
constexpr std::size_t NR = 16;      // register tile cols
constexpr std::size_t TILE_M = 64;  // output tile owned by one task
constexpr std::size_t TILE_N = 64;
// Below this flop count the packing setup outweighs the locality win.
constexpr std::size_t SMALL_FLOPS = 32 * 1024;
constexpr std::size_t TALL = 16;        // widest narrow side the tall-skinny path takes
constexpr std::size_t TALL_ROWS = 128;  // NN output rows per task

// Logical element readers: a(i, l) and b(l, j) of the m x k by k x n
// product, independent of storage orientation.
inline double read_a(const Matrix& a, Op op, std::size_t i, std::size_t l) {
  return op == Op::TN ? a(l, i) : a(i, l);
}
inline double read_b(const Matrix& b, Op op, std::size_t l, std::size_t j) {
  return op == Op::NT ? b(j, l) : b(l, j);
}

static_assert(MR == 4 && NR == 16, "KernelOps::gemm_* implements a 4 x 16 tile");

// Naive fallback for small products: streaming accumulation straight into C
// (no packing, no temporaries).
void gemm_naive(Matrix& c, const Matrix& a, const Matrix& b, Op op, double alpha,
                std::size_t m, std::size_t n, std::size_t k) {
  if (op == Op::NT) {
    for (std::size_t i = 0; i < m; ++i) {
      const double* arow = a.row_ptr(i);
      double* crow = c.row_ptr(i);
      for (std::size_t j = 0; j < n; ++j) {
        const double* brow = b.row_ptr(j);
        double s = 0.0;
        for (std::size_t l = 0; l < k; ++l) s += arow[l] * brow[l];
        crow[j] += alpha * s;
      }
    }
    return;
  }
  if (op == Op::TN) {
    for (std::size_t l = 0; l < k; ++l) {
      const double* arow = a.row_ptr(l);
      const double* brow = b.row_ptr(l);
      for (std::size_t i = 0; i < m; ++i) {
        const double ali = alpha * arow[i];
        if (ali == 0.0) continue;
        double* crow = c.row_ptr(i);
        for (std::size_t j = 0; j < n; ++j) crow[j] += ali * brow[j];
      }
    }
    return;
  }
  for (std::size_t i = 0; i < m; ++i) {
    double* crow = c.row_ptr(i);
    for (std::size_t l = 0; l < k; ++l) {
      const double ail = alpha * a(i, l);
      if (ail == 0.0) continue;
      const double* brow = b.row_ptr(l);
      for (std::size_t j = 0; j < n; ++j) crow[j] += ail * brow[j];
    }
  }
}

// Shared packed operands: A as ceil(m/MR) MR-row strips, B as ceil(n/NR)
// NR-column strips, both over the full depth k and zero-padded to the tile.
// The buffers are thread_local so repeated products reuse the same pages
// instead of paying an mmap + page-fault + zero cycle per call (they are
// fully overwritten for the region in use each time).
struct Packed {
  std::vector<double> a, b;
};

Packed& pack_operands(const Matrix& a, const Matrix& b, Op op, std::size_t m, std::size_t n,
                      std::size_t k) {
  thread_local Packed pk;
  const std::size_t a_strips = (m + MR - 1) / MR;
  const std::size_t b_strips = (n + NR - 1) / NR;
  if (pk.a.size() < a_strips * MR * k) pk.a.resize(a_strips * MR * k);
  if (pk.b.size() < b_strips * NR * k) pk.b.resize(b_strips * NR * k);
  // Captured as plain pointers: a lambda body naming `pk` directly would
  // re-resolve the thread_local on the executing pool worker, not here.
  double* const pka = pk.a.data();
  double* const pkb = pk.b.data();
  parallel_for(a_strips, [&, pka](std::size_t s) {
    double* dst = pka + s * k * MR;
    const std::size_t rows = std::min(MR, m - s * MR);
    if (rows == MR) {
      for (std::size_t l = 0; l < k; ++l)
        for (std::size_t r = 0; r < MR; ++r) dst[l * MR + r] = read_a(a, op, s * MR + r, l);
    } else {
      for (std::size_t l = 0; l < k; ++l)
        for (std::size_t r = 0; r < MR; ++r)
          dst[l * MR + r] = r < rows ? read_a(a, op, s * MR + r, l) : 0.0;
    }
  });
  parallel_for(b_strips, [&, pkb](std::size_t s) {
    double* dst = pkb + s * k * NR;
    const std::size_t cols = std::min(NR, n - s * NR);
    if (cols == NR) {
      for (std::size_t l = 0; l < k; ++l)
        for (std::size_t c = 0; c < NR; ++c) dst[l * NR + c] = read_b(b, op, l, s * NR + c);
    } else {
      for (std::size_t l = 0; l < k; ++l)
        for (std::size_t c = 0; c < NR; ++c)
          dst[l * NR + c] = c < cols ? read_b(b, op, l, s * NR + c) : 0.0;
    }
  });
  return pk;
}

// C row segment += alpha * accumulator row (= when !accumulate): the one
// place a kernel accumulator meets alpha and C, shared by the packed and
// tall-skinny paths so both round it identically.
void store_tile_row(double* crow, const double* acc, double alpha, bool accumulate,
                    std::size_t cols) {
  if (accumulate) {
    for (std::size_t cc = 0; cc < cols; ++cc) crow[cc] += alpha * acc[cc];
  } else {
    for (std::size_t cc = 0; cc < cols; ++cc) crow[cc] = alpha * acc[cc];
  }
}

// One output tile: C[i0:i0+mc, j0:j0+nc] += alpha * (A B) restricted to the
// tile, from the shared packed strips. Runs on a single task. The micro-
// kernel comes from the active backend.
void compute_tile(const KernelOps& ops, Matrix& c, const Packed& pk, double alpha,
                  bool accumulate, std::size_t k, std::size_t m, std::size_t n,
                  std::size_t i0, std::size_t mc, std::size_t j0, std::size_t nc) {
  for (std::size_t jr = 0; jr < nc; jr += NR) {
    const std::size_t cols = std::min(NR, n - (j0 + jr));
    const double* bp = pk.b.data() + ((j0 + jr) / NR) * k * NR;
    for (std::size_t ir = 0; ir < mc; ir += MR) {
      const std::size_t rows = std::min(MR, m - (i0 + ir));
      const double* ap = pk.a.data() + ((i0 + ir) / MR) * k * MR;
      double acc[MR][NR];
      ops.gemm_f64(ap, bp, k, &acc[0][0]);
      for (std::size_t r = 0; r < rows; ++r)
        store_tile_row(c.row_ptr(i0 + ir + r) + j0 + jr, acc[r], alpha, accumulate, cols);
    }
  }
}

// Row-streaming TN product C (m x n, both <= TALL) += alpha A' B over the
// k rows of A and B: one kernel call on the calling task.
void gemm_tall_tn(const KernelOps& ops, Matrix& c, const Matrix& a, const Matrix& b,
                  double alpha, bool accumulate) {
  const std::size_t m = c.rows(), n = c.cols();
  double acc[TALL * TALL];
  ops.gemm_tn_tall_f64(a.row_ptr(0), m, b.row_ptr(0), n, a.rows(), acc);
  for (std::size_t i = 0; i < m; ++i)
    store_tile_row(c.row_ptr(i), acc + i * TALL, alpha, accumulate, n);
}

// Row-streaming NN product C (m x n) += alpha A B with B at most TALL x
// TALL, padded once to TALL columns; fixed TALL_ROWS chunks of C's rows
// run as independent tasks.
void gemm_tall_nn(const KernelOps& ops, Matrix& c, const Matrix& a, const Matrix& b,
                  double alpha, bool accumulate) {
  const std::size_t m = c.rows(), n = c.cols(), kk = a.cols();
  double b16[TALL * TALL] = {};
  for (std::size_t l = 0; l < kk; ++l)
    for (std::size_t j = 0; j < n; ++j) b16[l * TALL + j] = b(l, j);
  parallel_for((m + TALL_ROWS - 1) / TALL_ROWS, [&](std::size_t t) {
    const std::size_t r0 = t * TALL_ROWS, rows = std::min(TALL_ROWS, m - r0);
    double acc[TALL_ROWS * TALL];
    ops.gemm_nn_tall_f64(a.row_ptr(r0), kk, rows, b16, n, acc);
    for (std::size_t r = 0; r < rows; ++r)
      store_tile_row(c.row_ptr(r0 + r), acc + r * TALL, alpha, accumulate, n);
  });
}

// C += alpha op(A) op(B) (or C = alpha op(A) op(B) when accumulate is
// false: a fresh zero C need not be re-read). Dispatch depends only on the
// shapes.
void gemm_add(Matrix& c, const Matrix& a, const Matrix& b, Op op, double alpha,
              bool accumulate = true) {
  const std::size_t m = c.rows(), n = c.cols();
  const std::size_t k = op == Op::TN ? a.rows() : a.cols();
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;
  if (m * n * k <= SMALL_FLOPS) {
    gemm_naive(c, a, b, op, alpha, m, n, k);
    return;
  }
  const KernelOps& ops = kernel_ops();
  if (op == Op::TN && m <= TALL && n <= TALL) {
    gemm_tall_tn(ops, c, a, b, alpha, accumulate);
    return;
  }
  if (op == Op::NN && k <= TALL && n <= TALL) {
    gemm_tall_nn(ops, c, a, b, alpha, accumulate);
    return;
  }
  const Packed& pk = pack_operands(a, b, op, m, n, k);
  const std::size_t mt = (m + TILE_M - 1) / TILE_M;
  const std::size_t nt = (n + TILE_N - 1) / TILE_N;
  parallel_for(mt * nt, [&](std::size_t t) {
    const std::size_t i0 = (t / nt) * TILE_M, j0 = (t % nt) * TILE_N;
    compute_tile(ops, c, pk, alpha, accumulate, k, m, n, i0, std::min(TILE_M, m - i0), j0,
                 std::min(TILE_N, n - j0));
  });
}

}  // namespace

Matrix matmul(const Matrix& a, const Matrix& b) {
  SUBSPAR_REQUIRE(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  gemm_add(c, a, b, Op::NN, 1.0, /*accumulate=*/false);
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  SUBSPAR_REQUIRE(a.rows() == b.rows());
  Matrix c(a.cols(), b.cols());
  gemm_add(c, a, b, Op::TN, 1.0, /*accumulate=*/false);
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  SUBSPAR_REQUIRE(a.cols() == b.cols());
  Matrix c(a.rows(), b.rows());
  gemm_add(c, a, b, Op::NT, 1.0, /*accumulate=*/false);
  return c;
}

void matmul_add(Matrix& c, const Matrix& a, const Matrix& b, double alpha) {
  SUBSPAR_REQUIRE(a.cols() == b.rows() && c.rows() == a.rows() && c.cols() == b.cols());
  gemm_add(c, a, b, Op::NN, alpha);
}

void matmul_tn_add(Matrix& c, const Matrix& a, const Matrix& b, double alpha) {
  SUBSPAR_REQUIRE(a.rows() == b.rows() && c.rows() == a.cols() && c.cols() == b.cols());
  gemm_add(c, a, b, Op::TN, alpha);
}

void matmul_nt_add(Matrix& c, const Matrix& a, const Matrix& b, double alpha) {
  SUBSPAR_REQUIRE(a.cols() == b.cols() && c.rows() == a.rows() && c.cols() == b.rows());
  gemm_add(c, a, b, Op::NT, alpha);
}

Matrix gram_tn(const Matrix& a) {
  const std::size_t n = a.cols(), k = a.rows();
  Matrix c(n, n);
  if (n == 0 || k == 0) return c;
  if (n * n * k <= SMALL_FLOPS) {
    gemm_naive(c, a, a, Op::TN, 1.0, n, n, k);
  } else {
    // Only tiles on or above the diagonal; the strict lower triangle is
    // mirrored afterwards so the result is exactly symmetric.
    const KernelOps& ops = kernel_ops();
    const Packed& pk = pack_operands(a, a, Op::TN, n, n, k);
    const std::size_t nt = (n + TILE_N - 1) / TILE_N;
    std::vector<std::pair<std::size_t, std::size_t>> tiles;
    for (std::size_t ti = 0; ti < nt; ++ti)
      for (std::size_t tj = ti; tj < nt; ++tj) tiles.emplace_back(ti, tj);
    parallel_for(tiles.size(), [&](std::size_t t) {
      const std::size_t i0 = tiles[t].first * TILE_N, j0 = tiles[t].second * TILE_N;
      compute_tile(ops, c, pk, 1.0, /*accumulate=*/false, k, n, n, i0,
                   std::min(TILE_N, n - i0), j0, std::min(TILE_N, n - j0));
    });
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) c(j, i) = c(i, j);
  return c;
}

}  // namespace subspar
