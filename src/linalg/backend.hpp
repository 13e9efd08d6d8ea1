// Runtime-dispatched SIMD kernel backend (ROADMAP item 4).
//
// The hot kernels — the packed and tall-skinny GEMM kernels, the multi-RHS CSR
// SpMM row kernels, and the DCT twiddle/dense loops — are compiled several
// times into per-ISA translation units (scalar baseline, AVX2+FMA, AVX-512,
// NEON) and selected ONCE per process through a table of function pointers.
// One binary therefore serves every ISA: the default build carries all
// variants the compiler can target and CPUID picks the best supported one
// at first use, overridable with SUBSPAR_BACKEND=scalar|avx2|avx512|neon.
//
// Contracts:
//  - kScalar is the bit-exact deterministic reference: its kernels are the
//    pre-backend code compiled with the build's baseline flags, so forcing
//    SUBSPAR_BACKEND=scalar reproduces the golden pins bit for bit.
//  - SIMD backends keep the same per-output accumulation ORDER (ascending
//    inner index per output element) but may contract multiply-adds into
//    FMAs and vectorize across independent outputs, so they agree with
//    scalar to solver tolerance (tests pin a few-ULP bound), not bitwise.
//  - The backend choice is NEVER digested into cache tags or ModelCache
//    keys: all backends implement the same operator to solver tolerance, so
//    a model extracted under one backend is valid under every other.
//  - Precision::kMixed (fp32-storage / fp64-accumulate kernels plus the
//    iterative-refinement outer loop in pcg_block_refined) IS digested into
//    cache_tag: mixed results are legitimately different bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace subspar {

/// Kernel arithmetic mode carried by SolverConfig and the solver options.
/// kFp64 is the default full-precision engine; kMixed stores operators in
/// fp32 (half the bytes moved on the bandwidth-bound paths) while keeping
/// every accumulator in fp64 and correcting with fp64 true residuals.
enum class Precision { kFp64, kMixed };

enum class BackendKind { kScalar, kAvx2, kAvx512, kNeon };

/// Stable lower-case name ("scalar", "avx2", "avx512", "neon") — the
/// SUBSPAR_BACKEND vocabulary and the ExtractionReport::backend value.
const char* backend_name(BackendKind kind);

/// Parses a SUBSPAR_BACKEND value. Throws std::invalid_argument for unknown
/// names and for backends that are compiled in but not supported by this
/// CPU (the message lists the usable names).
BackendKind parse_backend(const std::string& name);

/// The per-ISA kernel table. Every member is a plain function pointer so a
/// backend is one table, dispatch is one indirect call per kernel strip/row
/// (amortized over the strip's work), and tests can swap backends at will.
struct KernelOps {
  BackendKind kind = BackendKind::kScalar;

  /// acc[4 x 16] = (packed MR-row A strip) x (packed NR-col B strip) over
  /// depth k; strips laid out as dense_kernels.cpp packs them.
  void (*gemm_f64)(const double* ap, const double* bp, std::size_t k, double* acc);
  /// Mixed GEMM micro-kernel: fp32-packed strips, fp64 accumulators.
  void (*gemm_f32)(const float* ap, const float* bp, std::size_t k, double* acc);

  /// Tall-skinny GEMM (dense_kernels.cpp's row-streaming path), read
  /// straight from the row-major operands. Every output is gemm_f64's
  /// ascending-depth multiply-add chain from zero, contracted the same way,
  /// so the result is bit-identical to the packed path's accumulator.
  /// TN Gram shape: acc[i * 16 + j] = sum_l a[l * m + i] * b[l * n + j]
  /// over the k rows of the k x m and k x n operands (m, n <= 16); acc is
  /// 16 x 16 and its entries outside m x n are unspecified.
  void (*gemm_tn_tall_f64)(const double* a, std::size_t m, const double* b, std::size_t n,
                           std::size_t k, double* acc);
  /// NN update shape: acc[r * 16 + j] = sum_l a[r * kk + l] * b16[l * 16 + j]
  /// for `rows` rows of the row-major rows x kk operand (kk <= 16) and
  /// j < n <= 16; b16 is the kk x n right operand zero-padded to 16
  /// columns, and acc's columns at and past n are unspecified.
  void (*gemm_nn_tall_f64)(const double* a, std::size_t kk, std::size_t rows,
                           const double* b16, std::size_t n, double* acc);

  /// One CSR output row of Y = A X: yrow[j] = sum_e vals[e] * x(cols[e], j)
  /// for all k right-hand-side columns (x row-major with leading dim ldx).
  void (*spmm_row_f64)(const double* vals, const std::size_t* cols, std::size_t nnz,
                       const double* x, std::size_t ldx, double* yrow, std::size_t k);
  /// Mixed SpMM row: fp32 values + 32-bit column indices (half the bytes
  /// per traversed entry), fp64 right-hand sides and accumulators.
  void (*spmm_row_f32)(const float* vals, const std::uint32_t* cols, std::size_t nnz,
                       const double* x, std::size_t ldx, double* yrow, std::size_t k);
  /// Transpose-apply scatter of one CSR row: y(cols[e], j) += vals[e] *
  /// xrow[j] for j in [j0, j1) (y row-major with leading dim ldy).
  void (*spmm_t_row_f64)(const double* vals, const std::size_t* cols, std::size_t nnz,
                         const double* xrow, std::size_t j0, std::size_t j1, double* y,
                         std::size_t ldy);

  /// Contiguous dot products (the dense-table DCT path).
  double (*dot_f64)(const double* a, const double* b, std::size_t n);
  double (*dot_f32)(const float* a, const double* b, std::size_t n);

  /// DCT-II post-twiddle: x[0] = re(v[0]) * s0, x[k] = (tc[k] re(v[k]) -
  /// ts[k] im(v[k])) * sk for k in [1, n). `v` is n interleaved (re, im)
  /// pairs (std::complex<double> layout).
  void (*dct2_post_f64)(const double* tc, const double* ts, const double* v, double* x,
                        std::size_t n, double s0, double sk);
  /// DCT-III pre-twiddle: v[0] = (x[0]/s0, 0) and for k in [1, n) with
  /// c = tc[k], s = -ts[k], ck = x[k]/sk, cnk = x[n-k]/sk:
  /// v[k] = (c ck + s cnk, s ck - c cnk).
  void (*dct3_pre_f64)(const double* tc, const double* ts, const double* x, double* v,
                       std::size_t n, double s0, double sk);
  /// Mixed twiddles: fp32 tables, fp64 data and arithmetic.
  void (*dct2_post_f32)(const float* tc, const float* ts, const double* v, double* x,
                        std::size_t n, double s0, double sk);
  void (*dct3_pre_f32)(const float* tc, const float* ts, const double* x, double* v,
                       std::size_t n, double s0, double sk);
};

/// Backends compiled into this binary (always contains kScalar; the SIMD
/// variants depend on the target architecture and compiler).
std::vector<BackendKind> compiled_backends();

/// Compiled backends this CPU can execute (CPUID-gated subset of
/// compiled_backends(); always contains kScalar).
std::vector<BackendKind> supported_backends();

/// The active backend. Resolved on first use: SUBSPAR_BACKEND when set and
/// non-empty (invalid values throw std::invalid_argument), otherwise the
/// best supported backend in the order avx512 > avx2 > neon > scalar.
BackendKind active_backend();

/// Switches the active backend (tests, benches, tools). Throws
/// std::invalid_argument when `kind` is not supported on this CPU. Not
/// intended to race in-flight kernels: callers switch between solves.
void set_backend(BackendKind kind);

/// Kernel table of the active backend.
const KernelOps& kernel_ops();

}  // namespace subspar
