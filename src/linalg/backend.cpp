// Backend registry + runtime dispatch (see backend.hpp for the contracts).
//
// Which per-ISA TUs exist in this binary is communicated by compile
// definitions set on THIS file only (src/CMakeLists.txt): the SIMD TUs are
// compiled whenever the compiler can target them, and the CPU gate happens
// here at runtime, so one binary carries every variant and never executes
// an instruction the host lacks.
#include "linalg/backend.hpp"

#include <atomic>
#include <cstdlib>
#include <stdexcept>

namespace subspar {

namespace backend_detail {
// One externally visible symbol per compiled-in backend TU.
namespace scalar {
const KernelOps& ops();
}
#if defined(SUBSPAR_HAVE_AVX512_TU)
namespace avx512 {
const KernelOps& ops();
}
#endif
#if defined(SUBSPAR_HAVE_NEON_TU)
namespace neon {
const KernelOps& ops();
}
#endif
}  // namespace backend_detail

namespace {

bool cpu_supports(BackendKind kind) {
  switch (kind) {
    case BackendKind::kScalar:
      return true;
    case BackendKind::kAvx512:
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
      return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case BackendKind::kNeon:
      // NEON is baseline on AArch64; the TU only exists on ARM builds.
#if defined(__aarch64__) || defined(_M_ARM64)
      return true;
#else
      return false;
#endif
  }
  return false;
}

const KernelOps* ops_for(BackendKind kind) {
  switch (kind) {
    case BackendKind::kScalar:
      return &backend_detail::scalar::ops();
#if defined(SUBSPAR_HAVE_AVX512_TU)
    case BackendKind::kAvx512:
      return &backend_detail::avx512::ops();
#endif
#if defined(SUBSPAR_HAVE_NEON_TU)
    case BackendKind::kNeon:
      return &backend_detail::neon::ops();
#endif
    default:
      return nullptr;  // kind not compiled into this binary
  }
}

std::string usable_names() {
  std::string s;
  for (BackendKind kind : supported_backends()) {
    if (!s.empty()) s += ", ";
    s += backend_name(kind);
  }
  return s;
}

// Resolution order for the startup default; best first.
constexpr BackendKind kPreference[] = {BackendKind::kAvx512, BackendKind::kNeon,
                                       BackendKind::kScalar};

const KernelOps* resolve_default() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): single read at first dispatch
  const char* env = std::getenv("SUBSPAR_BACKEND");
  if (env != nullptr && *env != '\0') return ops_for(parse_backend(env));
  for (BackendKind kind : kPreference) {
    const KernelOps* ops = ops_for(kind);
    if (ops != nullptr && cpu_supports(kind)) return ops;
  }
  return &backend_detail::scalar::ops();
}

// Lazily resolved on first use. The resolution is deterministic (pure
// function of the environment and CPUID), so a benign first-use race would
// install the same pointer from every thread; release/acquire ordering
// still keeps the publication well-defined.
std::atomic<const KernelOps*> g_active{nullptr};

}  // namespace

const char* backend_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kScalar:
      return "scalar";
    case BackendKind::kAvx512:
      return "avx512";
    case BackendKind::kNeon:
      return "neon";
  }
  return "unknown";
}

BackendKind parse_backend(const std::string& name) {
  BackendKind kind;
  if (name == "scalar") {
    kind = BackendKind::kScalar;
  } else if (name == "avx512") {
    kind = BackendKind::kAvx512;
  } else if (name == "neon") {
    kind = BackendKind::kNeon;
  } else {
    throw std::invalid_argument("subspar: unknown backend \"" + name +
                                "\" (usable on this machine: " + usable_names() + ")");
  }
  if (ops_for(kind) == nullptr || !cpu_supports(kind))
    throw std::invalid_argument("subspar: backend \"" + name +
                                "\" is not usable on this machine (usable: " +
                                usable_names() + ")");
  return kind;
}

std::vector<BackendKind> compiled_backends() {
  std::vector<BackendKind> out{BackendKind::kScalar};
#if defined(SUBSPAR_HAVE_AVX512_TU)
  out.push_back(BackendKind::kAvx512);
#endif
#if defined(SUBSPAR_HAVE_NEON_TU)
  out.push_back(BackendKind::kNeon);
#endif
  return out;
}

std::vector<BackendKind> supported_backends() {
  std::vector<BackendKind> out;
  for (BackendKind kind : compiled_backends())
    if (cpu_supports(kind)) out.push_back(kind);
  return out;
}

const KernelOps& kernel_ops() {
  const KernelOps* ops = g_active.load(std::memory_order_acquire);
  if (ops == nullptr) {
    ops = resolve_default();
    g_active.store(ops, std::memory_order_release);
  }
  return *ops;
}

BackendKind active_backend() { return kernel_ops().kind; }

void set_backend(BackendKind kind) {
  const KernelOps* ops = ops_for(kind);
  if (ops == nullptr || !cpu_supports(kind))
    throw std::invalid_argument(std::string("subspar: backend \"") + backend_name(kind) +
                                "\" is not usable on this machine (usable: " +
                                usable_names() + ")");
  g_active.store(ops, std::memory_order_release);
}

}  // namespace subspar
