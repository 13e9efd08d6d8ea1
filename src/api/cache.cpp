#include "subspar/cache.hpp"

#include <filesystem>
#include <utility>

#include "core/io.hpp"
#include "linalg/backend.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/hash.hpp"
#include "util/sync.hpp"
#include "util/timer.hpp"

namespace subspar {
namespace {

/// Renames a corrupt persisted model aside for post-mortem. The suffix is
/// monotonic ('<path>.quarantined.1', '.2', ...): repeated corruption of the
/// same key preserves every specimen instead of silently overwriting the
/// earlier evidence. Rename failures are swallowed — quarantine is
/// best-effort and must never turn a recoverable corruption into an error;
/// the fresh extraction overwrites the bad file in that case.
bool quarantine(const std::string& path) {
  std::error_code ec;
  for (int n = 1; n < 10000; ++n) {
    const std::string aside = path + ".quarantined." + std::to_string(n);
    if (std::filesystem::exists(aside, ec)) continue;
    ec.clear();
    std::filesystem::rename(path, aside, ec);
    return !ec;
  }
  return false;
}

ExtractionReport hit_report(const SparsifiedModel& model, double lookup_seconds) {
  ExtractionReport report;
  report.n = model.q().rows();
  report.solves = 0;
  report.seconds = lookup_seconds;
  report.gw_sparsity = model.gw_sparsity_factor();
  report.q_sparsity = model.q_sparsity_factor();
  report.solve_reduction = model.solve_reduction_factor();
  report.from_cache = true;
  // Provenance of this process's kernels, not of the cached model: the
  // backend is not part of the cache key (it never changes results beyond
  // solver tolerance), so a hit is valid under any backend.
  report.backend = backend_name(active_backend());
  return report;
}

}  // namespace

std::string model_cache_key(const Layout& layout, const SubstrateStack& stack,
                            const ExtractionRequest& request, const std::string& solver_tag) {
  Fnv1a hash;
  hash.str(solver_tag);
  hash.str(substrate_fingerprint(layout, stack));

  hash.u64(request.method == SparsifyMethod::kWavelet ? 0 : 1);
  hash.i64(request.moment_order);
  hash.f64(request.lowrank.sigma_rel_tol);
  hash.u64(request.lowrank.max_rank);
  hash.f64(request.lowrank.u_sigma_rel_tol);
  hash.u64(request.lowrank.seed);
  hash.f64(request.threshold_sparsity_multiple);
  return hash.hex();
}

std::size_t model_memory_bytes(const SparsifiedModel& model) {
  // CSR storage: one value + one column index per nonzero, one row offset
  // per row, for each of the two factors.
  const std::size_t per_nnz = sizeof(double) + sizeof(std::size_t);
  return (model.q().nnz() + model.gw().nnz()) * per_nnz +
         (model.q().rows() + model.gw().rows() + 2) * sizeof(std::size_t);
}

ModelCache::ModelCache(std::string persist_dir) : persist_dir_(std::move(persist_dir)) {
  SUBSPAR_REQUIRE(!persist_dir_.empty());
  std::filesystem::create_directories(persist_dir_);
}

std::size_t ModelCache::shard_index(const std::string& key) const {
  Fnv1a hash;
  hash.str(key);
  return static_cast<std::size_t>(hash.h % kShards);
}

std::string ModelCache::persist_path(const std::string& key) const {
  return (std::filesystem::path(persist_dir_) / ("model-" + key + ".txt")).string();
}

void ModelCache::insert_entry(const std::string& key, const SparsifiedModel& model) {
  Shard& shard = shards_[shard_index(key)];
  const std::size_t bytes = model_memory_bytes(model);
  const std::uint64_t tick = tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  {
    const ExclusiveLock lock(shard.mutex);
    const auto [it, inserted] = shard.entries.try_emplace(key, model, bytes, tick);
    if (!inserted) {
      // Concurrent misses of one key both extract (documented); the first
      // insert wins — identical bits either way by determinism — and the
      // loser just refreshes recency.
      it->second.last_used.store(tick, std::memory_order_relaxed);
      return;
    }
  }
  bytes_.fetch_add(bytes, std::memory_order_acq_rel);
  evict_to_budget();
}

void ModelCache::evict_to_budget() {
  const std::size_t budget = memory_budget_.load(std::memory_order_acquire);
  if (budget == 0) return;
  while (bytes_.load(std::memory_order_acquire) > budget) {
    // Global LRU victim: scan every shard under shared locks for the oldest
    // tick. O(entries), but eviction is rare relative to hits and the
    // entry count at any sane budget is small.
    std::size_t victim_shard = kShards;
    std::string victim_key;
    std::uint64_t victim_tick = ~std::uint64_t{0};
    std::size_t total_entries = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      // Local shard reference: the analysis ties the lock expression and the
      // guarded accesses to the same variable.
      const Shard& scan = shards_[s];
      const SharedLock lock(scan.mutex);
      total_entries += scan.entries.size();
      for (const auto& [key, entry] : scan.entries) {
        const std::uint64_t t = entry.last_used.load(std::memory_order_relaxed);
        if (t < victim_tick) {
          victim_tick = t;
          victim_key = key;
          victim_shard = s;
        }
      }
    }
    // Never evict the last entry: one model larger than the budget still
    // serves (the budget bounds the tail, not the working item).
    if (victim_shard == kShards || total_entries <= 1) return;
    Shard& shard = shards_[victim_shard];
    const ExclusiveLock lock(shard.mutex);
    const auto it = shard.entries.find(victim_key);
    if (it == shard.entries.end()) continue;  // raced with clear(); rescan
    bytes_.fetch_sub(it->second.bytes, std::memory_order_acq_rel);
    shard.entries.erase(it);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

ExtractionResult ModelCache::get_or_extract(const SubstrateSolver& solver, const Layout& layout,
                                            const SubstrateStack& stack,
                                            const ExtractionRequest& request) {
  validate(request);
  SUBSPAR_REQUIRE(solver.n_contacts() == layout.n_contacts());
  const std::string key = model_cache_key(layout, stack, request, solver.cache_tag());
  Timer timer;
  {
    Shard& shard = shards_[shard_index(key)];
    const SharedLock lock(shard.mutex);
    const auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      it->second.last_used.store(tick_.fetch_add(1, std::memory_order_relaxed) + 1,
                                 std::memory_order_relaxed);
      hits_.fetch_add(1, std::memory_order_relaxed);
      ExtractionReport report = hit_report(it->second.model, timer.seconds());
      report.cache.hits = 1;
      return ExtractionResult{it->second.model, std::move(report)};
    }
  }
  CacheEvents events;  // events of this request, folded into the counters at the end
  std::string corrupt_note;
  if (!persist_dir_.empty()) {
    const std::string path = persist_path(key);
    if (std::filesystem::exists(path)) {
      try {
        if (fault_fire(FaultSite::kCacheRead))
          throw ModelIoError("get_or_extract: injected cache-read fault on '" + path + "'");
        SparsifiedModel model = load_model(path);
        // A renamed/copied file can be internally consistent yet belong to
        // a different extraction; size it against the requesting solver and
        // treat a mismatch like any other corrupt file (fresh extraction).
        SUBSPAR_REQUIRE(model.q().rows() == solver.n_contacts());
        hits_.fetch_add(1, std::memory_order_relaxed);
        disk_loads_.fetch_add(1, std::memory_order_relaxed);
        ExtractionReport report = hit_report(model, timer.seconds());
        report.cache.hits = 1;
        report.cache.disk_loads = 1;
        insert_entry(key, model);
        return ExtractionResult{std::move(model), std::move(report)};
      } catch (const std::exception& e) {
        // Corrupt, truncated, bit-flipped, torn, or mismatched persisted
        // model: quarantine the file for post-mortem, then fall through to
        // a fresh extraction, which publishes a good file under the
        // original name. The caller sees counters and a fallbacks line,
        // never an error.
        ++events.corruptions;
        if (quarantine(path)) ++events.quarantines;
        corrupt_note =
            "cache: quarantined corrupt model file '" + path + "' (" + e.what() +
            "); re-extracted";
      }
    }
  }

  ExtractionResult result = Extractor(solver, layout).extract(request);
  if (!persist_dir_.empty()) {
    try {
      save_model(persist_path(key), result.model);
    } catch (const std::exception&) {
      // An unwritable persist directory must not discard a successful
      // extraction: keep serving from memory, retry the write on the next
      // miss of this key (if any).
      ++events.write_failures;
    }
  }
  events.misses = 1;
  result.report.cache = events;
  if (!corrupt_note.empty()) result.report.fallbacks.push_back(corrupt_note);
  misses_.fetch_add(1, std::memory_order_relaxed);
  corruptions_.fetch_add(events.corruptions, std::memory_order_relaxed);
  quarantines_.fetch_add(events.quarantines, std::memory_order_relaxed);
  write_failures_.fetch_add(events.write_failures, std::memory_order_relaxed);
  insert_entry(key, result.model);
  return result;
}

bool ModelCache::contains(const SubstrateSolver& solver, const Layout& layout,
                          const SubstrateStack& stack, const ExtractionRequest& request) const {
  const std::string key = model_cache_key(layout, stack, request, solver.cache_tag());
  const Shard& shard = shards_[shard_index(key)];
  const SharedLock lock(shard.mutex);
  return shard.entries.find(key) != shard.entries.end();
}

void ModelCache::set_memory_budget(std::size_t bytes) {
  memory_budget_.store(bytes, std::memory_order_release);
  evict_to_budget();
}

std::size_t ModelCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    const SharedLock lock(shard.mutex);
    total += shard.entries.size();
  }
  return total;
}

void ModelCache::clear() {
  for (Shard& shard : shards_) {
    const ExclusiveLock lock(shard.mutex);
    for (const auto& [key, entry] : shard.entries)
      bytes_.fetch_sub(entry.bytes, std::memory_order_acq_rel);
    shard.entries.clear();
  }
}

CacheStats ModelCache::stats() const {
  CacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.disk_loads = disk_loads_.load(std::memory_order_relaxed);
  out.corruptions = corruptions_.load(std::memory_order_relaxed);
  out.quarantines = quarantines_.load(std::memory_order_relaxed);
  out.write_failures = write_failures_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace subspar
