#include "refclock.hpp"

#include <algorithm>
#include <ctime>

namespace perfbench {
namespace {

using V2 = double __attribute__((vector_size(16)));

constexpr long kChainIterations = 3'000'000;
constexpr std::size_t kDoubles = kReferenceBufferMb * (1u << 20) / sizeof(double);
constexpr std::size_t kLine = 64 / sizeof(double);  // doubles per cache line
constexpr int kPasses = 4;

// Read through volatile so the chains cannot be folded at compile time.
volatile double g_mul = 0.9999999;
volatile double g_add = 1e-7;
volatile double g_loop_sink = 0.0;

// Neither part is inlined, so both stay between the two clock reads.

/// Eight independent multiply-add chains of SSE-width vectors, in registers.
__attribute__((noinline)) double run_chains() {
  const V2 m = {g_mul, g_mul};
  const V2 a = {g_add, g_add};
  V2 x0 = {1, 2}, x1 = {3, 4}, x2 = {5, 6}, x3 = {7, 8};
  V2 x4 = {9, 10}, x5 = {11, 12}, x6 = {13, 14}, x7 = {15, 16};
  for (long i = 0; i < kChainIterations; ++i) {
    x0 = x0 * m + a;
    x1 = x1 * m + a;
    x2 = x2 * m + a;
    x3 = x3 * m + a;
    x4 = x4 * m + a;
    x5 = x5 * m + a;
    x6 = x6 * m + a;
    x7 = x7 * m + a;
  }
  const V2 sum = x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7;
  return sum[0] + sum[1];
}

/// Reads and writes one double in each cache line of the buffer, kPasses
/// times.
__attribute__((noinline)) double touch_lines(double* buffer) {
  double sum = 0.0;
  for (int p = 0; p < kPasses; ++p) {
    for (std::size_t i = 0; i < kDoubles; i += kLine) {
      sum += buffer[i];
      buffer[i] += 1e-9;
    }
  }
  return sum;
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double reference_loop_seconds() {
  // Allocated and written once, before the first timed pass.
  static std::vector<double> buffer(kDoubles, 1.0);
  const double t0 = thread_cpu_seconds();
  const double chains = run_chains();
  const double lines = touch_lines(buffer.data());
  const double t1 = thread_cpu_seconds();
  g_loop_sink = chains + lines;
  return t1 - t0;
}

double RefClock::scale_mean() const {
  double sum = 0.0;
  for (const double s : loops_) sum += s;
  return kRefLoopSeconds * static_cast<double>(loops_.size()) / sum;
}

double RefClock::scale_median() const {
  std::vector<double> v = loops_;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
  return kRefLoopSeconds / v[v.size() / 2];
}

}  // namespace perfbench
