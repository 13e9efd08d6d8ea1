// The fault-injection suite: proves every recovery path of the
// fault-tolerance layer actually runs and recovers.
//
//  - the SUBSPAR_FAULT schedule is deterministic, site-maskable, replayable;
//  - robust_pcg_block walks its whole chain (verify -> restarts -> direct)
//    and throws the typed error only when everything is exhausted;
//  - a truncated / bit-flipped / torn cache file is quarantined and
//    transparently re-extracted to the identical model, never thrown;
//  - with solver faults armed, an end-to-end extraction completes within the
//    deterministic route's error bound, reports its fallbacks, and replays
//    bit-identically for a fixed seed.
//
// This suite deliberately does NOT link tests/support/hermetic_env.cpp: it
// owns SUBSPAR_FAULT via setenv/unsetenv + fault_reset() per test.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/robust.hpp"
#include "subspar/subspar.hpp"
#include "util/fault.hpp"

namespace subspar {
namespace {

namespace fs = std::filesystem;

class FaultEnv : public ::testing::Test {
 protected:
  static void arm(const std::string& spec) {
    ::setenv("SUBSPAR_FAULT", spec.c_str(), 1);
    fault_reset();
  }
  static void disarm() {
    ::unsetenv("SUBSPAR_FAULT");
    fault_reset();
  }
  void SetUp() override { disarm(); }
  void TearDown() override { disarm(); }
};

// ------------------------------------------------------------ the schedule

TEST_F(FaultEnv, DisarmedHarnessIsInert) {
  EXPECT_FALSE(fault_injection_enabled());
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(fault_fire(FaultSite::kSolverApply));
  const FaultCounts c = fault_counts();
  EXPECT_EQ(c.invocations[0], 1000u);
  EXPECT_EQ(c.fired[0], 0u);
}

TEST_F(FaultEnv, ScheduleReplaysBitIdenticallyForAFixedSeed) {
  const auto run = [](const std::string& spec) {
    FaultEnv::arm(spec);
    std::vector<bool> fires;
    fires.reserve(400);
    for (int i = 0; i < 400; ++i) fires.push_back(fault_fire(FaultSite::kSolverApply));
    return fires;
  };
  const auto a1 = run("42:0.25:0:a");
  const auto a2 = run("42:0.25:0:a");
  const auto b = run("43:0.25:0:a");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_GT(fault_fired(FaultSite::kSolverApply), 0u);  // from the last run
}

TEST_F(FaultEnv, SiteMaskRestrictsFiring) {
  arm("7:1:0:w");  // rate 1, cache-write only
  EXPECT_TRUE(fault_injection_enabled());
  EXPECT_TRUE(fault_fire(FaultSite::kCacheWrite));
  EXPECT_FALSE(fault_fire(FaultSite::kSolverApply));
  EXPECT_FALSE(fault_fire(FaultSite::kSolverSolve));
  EXPECT_FALSE(fault_fire(FaultSite::kCacheRead));
  EXPECT_FALSE(fault_fire(FaultSite::kIo));
}

TEST_F(FaultEnv, CooldownSuppressesASiteAfterItFires) {
  arm("7:1:2:a");  // rate 1, cooldown 2
  int fired = 0, last = -10;
  for (int i = 0; i < 9; ++i) {
    if (fault_fire(FaultSite::kSolverApply)) {
      EXPECT_GE(i - last, 3) << "fired again inside the cooldown window";
      last = i;
      ++fired;
    }
  }
  EXPECT_EQ(fired, 3);  // every 3rd invocation at rate 1
}

// ----------------------------------------------------- robust_pcg_block

// A small well-conditioned SPD test matrix.
Matrix spd_matrix(std::size_t n) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = 4.0 + static_cast<double>(i);
    if (i + 1 < n) {
      a(i, i + 1) = -1.0;
      a(i + 1, i) = -1.0;
    }
  }
  return a;
}

Matrix rhs_matrix(std::size_t n, std::size_t k) {
  Rng rng(77);
  Matrix b(n, k);
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t i = 0; i < n; ++i) b(i, j) = rng.normal();
  return b;
}

TEST(RobustPcg, HappyPathIsBitIdenticalToPcgBlock) {
  const std::size_t n = 12, k = 3;
  const Matrix a = spd_matrix(n);
  const Matrix b = rhs_matrix(n, k);
  const LinearOpMany op = [&](const Matrix& x, Matrix& y) { y = matmul(a, x); };
  const IterOptions iter{.rel_tol = 1e-10, .max_iterations = 200};
  BlockIterStats stats;
  const Matrix plain = pcg_block(op, b, iter, &stats);
  ASSERT_TRUE(stats.converged);
  RobustSolveReport rep;
  const Matrix robust = robust_pcg_block(op, b, {.iter = iter}, &rep);
  EXPECT_TRUE(rep.clean);
  EXPECT_EQ(rep.restarts, 0u);
  EXPECT_EQ((robust - plain).max_abs(), 0.0);
}

TEST(RobustPcg, ExhaustedChainThrowsTypedError) {
  const std::size_t n = 12, k = 2;
  const Matrix a = spd_matrix(n);
  const Matrix b = rhs_matrix(n, k);
  const LinearOpMany op = [&](const Matrix& x, Matrix& y) { y = matmul(a, x); };
  // One iteration cannot reach 1e-12 and there is no direct fallback.
  const RobustSolveOptions opt{.iter = {.rel_tol = 1e-12, .max_iterations = 1},
                               .max_restarts = 2,
                               .accept_factor = 1.0};
  RobustSolveReport rep;
  EXPECT_THROW(robust_pcg_block(op, b, opt, &rep), SolverConvergenceError);
  EXPECT_FALSE(rep.clean);
  EXPECT_GT(rep.max_iteration_hits, 0u);
  EXPECT_EQ(rep.restarts, 2u);
}

TEST(RobustPcg, DirectFallbackRecoversWhatIterationCannot) {
  const std::size_t n = 12, k = 2;
  const Matrix a = spd_matrix(n);
  const Matrix b = rhs_matrix(n, k);
  const LinearOpMany op = [&](const Matrix& x, Matrix& y) { y = matmul(a, x); };
  const Cholesky chol(a);
  const DirectSolveFn direct = [&](const Matrix& rhs) { return chol.solve(rhs); };
  const RobustSolveOptions opt{.iter = {.rel_tol = 1e-12, .max_iterations = 1},
                               .max_restarts = 1};
  RobustSolveReport rep;
  const Matrix x = robust_pcg_block(op, b, opt, &rep, nullptr, nullptr, direct);
  EXPECT_EQ(rep.direct_columns, k);
  EXPECT_FALSE(rep.clean);
  EXPECT_LT((matmul(a, x) - b).max_abs() / b.max_abs(), 1e-8);
}

TEST(RobustPcg, TransientGarbageIsDetectedAndRetried) {
  const std::size_t n = 12, k = 2;
  const Matrix a = spd_matrix(n);
  const Matrix b = rhs_matrix(n, k);
  // The first operator application returns NaN garbage (poisoning attempt
  // 0's Krylov recurrence); every later application is healthy. The chain
  // must detect the garbage at verification and recover via a restart.
  int calls = 0;
  const LinearOpMany op = [&](const Matrix& x, Matrix& y) {
    y = matmul(a, x);
    if (++calls == 1)
      for (std::size_t j = 0; j < y.cols(); ++j) y(0, j) = std::nan("");
  };
  const RobustSolveOptions opt{.iter = {.rel_tol = 1e-10, .max_iterations = 200}};
  RobustSolveReport rep;
  const Matrix x = robust_pcg_block(op, b, opt, &rep);
  EXPECT_FALSE(rep.clean);
  EXPECT_GE(rep.restarts + rep.nonfinite_events, 1u);
  EXPECT_LT((matmul(a, x) - b).max_abs() / b.max_abs(), 1e-8);
}

// -------------------------------------------------- cache corruption paths

// A small extraction rig (cheap: 64 contacts, surface solver).
struct Rig {
  SubstrateStack stack = paper_stack(40.0);
  Layout layout = regular_grid_layout(8);
  std::unique_ptr<SubstrateSolver> solver = make_solver(SolverKind::kSurface, layout, stack);
  ExtractionRequest request{.method = SparsifyMethod::kLowRank,
                            .threshold_sparsity_multiple = 6.0};
};

std::string fresh_dir(const char* name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  return dir.string();
}

std::string the_model_file(const std::string& dir) {
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string p = e.path().string();
    if (p.size() > 4 && p.substr(p.size() - 4) == ".txt") return p;
  }
  ADD_FAILURE() << "no persisted model file in " << dir;
  return {};
}

void expect_models_bit_equal(const SparsifiedModel& a, const SparsifiedModel& b) {
  ASSERT_EQ(a.q().nnz(), b.q().nnz());
  ASSERT_EQ(a.gw().nnz(), b.gw().nnz());
  EXPECT_EQ((a.q().to_dense() - b.q().to_dense()).max_abs(), 0.0);
  EXPECT_EQ((a.gw().to_dense() - b.gw().to_dense()).max_abs(), 0.0);
}

void corrupt_and_expect_transparent_reextraction(
    const std::string& dir, const std::function<void(const std::string&)>& corrupt) {
  Rig rig;
  ModelCache warm(dir);
  const ExtractionResult first = warm.get_or_extract(*rig.solver, rig.layout, rig.stack,
                                                     rig.request);
  const std::string path = the_model_file(dir);
  ASSERT_FALSE(path.empty());
  corrupt(path);

  // A second process (fresh cache over the same directory) must get the
  // identical model back with no exception, the bad file quarantined, and
  // the corruption visible only through counters and the fallbacks note.
  Rig rig2;
  ModelCache cold(dir);
  const ExtractionResult second =
      cold.get_or_extract(*rig2.solver, rig2.layout, rig2.stack, rig2.request);
  expect_models_bit_equal(first.model, second.model);
  EXPECT_FALSE(second.report.from_cache);
  EXPECT_EQ(second.report.cache.corruptions, 1u);
  EXPECT_EQ(second.report.cache.quarantines, 1u);
  EXPECT_EQ(cold.stats().corruptions, 1u);
  EXPECT_EQ(cold.stats().quarantines, 1u);
  ASSERT_FALSE(second.report.fallbacks.empty());
  EXPECT_NE(second.report.fallbacks[0].find("quarantined"), std::string::npos);
  EXPECT_TRUE(fs::exists(path + ".quarantined.1"));
  // The re-extraction re-published a healthy file under the original name.
  EXPECT_NO_THROW(load_model(path));

  // Corrupt the re-published file too: the second specimen lands beside the
  // first (.quarantined.2) instead of overwriting the earlier evidence.
  corrupt(path);
  ModelCache cold2(dir);
  const ExtractionResult third_result =
      cold2.get_or_extract(*rig2.solver, rig2.layout, rig2.stack, rig2.request);
  expect_models_bit_equal(first.model, third_result.model);
  EXPECT_TRUE(fs::exists(path + ".quarantined.1"));
  EXPECT_TRUE(fs::exists(path + ".quarantined.2"));

  // Next access: a clean disk hit.
  ModelCache third(dir);
  const ExtractionResult hit =
      third.get_or_extract(*rig2.solver, rig2.layout, rig2.stack, rig2.request);
  EXPECT_TRUE(hit.report.from_cache);
  EXPECT_EQ(hit.report.cache.disk_loads, 1u);
  fs::remove_all(dir);
}

TEST(CacheFaults, TruncatedModelFileIsQuarantinedAndReextracted) {
  corrupt_and_expect_transparent_reextraction(
      fresh_dir("subspar_fault_trunc"), [](const std::string& path) {
        std::string data;
        {
          std::FILE* f = std::fopen(path.c_str(), "rb");
          ASSERT_NE(f, nullptr);
          char buf[4096];
          std::size_t n = 0;
          while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) data.append(buf, n);
          std::fclose(f);
        }
        std::FILE* f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite(data.data(), 1, data.size() / 2, f);  // torn in half
        std::fclose(f);
      });
}

TEST(CacheFaults, BitFlippedModelFileIsQuarantinedAndReextracted) {
  corrupt_and_expect_transparent_reextraction(
      fresh_dir("subspar_fault_flip"), [](const std::string& path) {
        std::FILE* f = std::fopen(path.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        const long size = std::ftell(f);
        std::fseek(f, size / 2, SEEK_SET);
        const int c = std::fgetc(f);
        std::fseek(f, size / 2, SEEK_SET);
        std::fputc(c ^ 0x04, f);  // flip one bit mid-payload
        std::fclose(f);
      });
}

TEST_F(FaultEnv, TornWriteNeverPublishesAndIsCountedNotThrown) {
  const std::string dir = fresh_dir("subspar_fault_torn");
  arm("5:1:0:w");  // every model-file write dies before the atomic rename
  Rig rig;
  ModelCache cache(dir);
  const ExtractionResult r =
      cache.get_or_extract(*rig.solver, rig.layout, rig.stack, rig.request);
  EXPECT_EQ(r.report.cache.write_failures, 1u);
  EXPECT_EQ(cache.stats().write_failures, 1u);
  // Neither a final file nor a .tmp leftover: the destination directory
  // holds no trace of the torn write.
  for (const auto& e : fs::directory_iterator(dir))
    ADD_FAILURE() << "unexpected file survived the torn write: " << e.path();
  // The result itself is healthy and memory-cached.
  EXPECT_GT(r.model.gw().nnz(), 0u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // Disarmed, a fresh cache re-extracts and the write goes through.
  disarm();
  Rig rig2;
  ModelCache retry(dir);
  const ExtractionResult r2 =
      retry.get_or_extract(*rig2.solver, rig2.layout, rig2.stack, rig2.request);
  EXPECT_EQ(retry.stats().write_failures, 0u);
  EXPECT_NO_THROW(load_model(the_model_file(dir)));
  expect_models_bit_equal(r.model, r2.model);
  fs::remove_all(dir);
}

TEST_F(FaultEnv, InjectedCacheReadFaultFallsBackToReextraction) {
  const std::string dir = fresh_dir("subspar_fault_read");
  Rig rig;
  {
    ModelCache warm(dir);
    warm.get_or_extract(*rig.solver, rig.layout, rig.stack, rig.request);
  }
  arm("9:1:0:r");  // every persisted-file read faults
  Rig rig2;
  ModelCache cache(dir);
  const ExtractionResult r =
      cache.get_or_extract(*rig2.solver, rig2.layout, rig2.stack, rig2.request);
  EXPECT_FALSE(r.report.from_cache);
  EXPECT_EQ(r.report.cache.corruptions, 1u);
  ASSERT_FALSE(r.report.fallbacks.empty());
  EXPECT_NE(r.report.fallbacks[0].find("injected cache-read fault"), std::string::npos);
  fs::remove_all(dir);
}

// ------------------------------------------------- end-to-end solver faults

TEST_F(FaultEnv, ExtractionUnderSolverFaultsStaysWithinErrorBoundAndReplays) {
  // Clean reference first.
  Rig clean;
  const ExtractionResult ref = Extractor(*clean.solver, clean.layout).extract(clean.request);
  Rng rng(2024);
  Vector v(clean.layout.n_contacts());
  for (auto& x : v) x = rng.uniform(-0.5, 0.5);
  const Vector exact = clean.solver->solve(v);
  const double ref_resid = norm2(ref.model.apply(v) - exact) / norm2(exact);

  // Armed run: solver sites only, aggressive enough to fire many times.
  const std::string spec = "2718:0.05:200:as";
  arm(spec);
  Rig faulty;
  const ExtractionResult hit = Extractor(*faulty.solver, faulty.layout).extract(faulty.request);
  const FaultCounts counts = fault_counts();
  const std::uint64_t fired = counts.fired[0] + counts.fired[1];
  ASSERT_GT(fired, 0u) << "schedule never fired; the test is vacuous";
  // Every fired fault was recovered: the report lists the fallbacks taken
  // and the solver diagnostics reached the per-phase timings.
  EXPECT_FALSE(hit.report.fallbacks.empty());
  const SolverDiagnostics& d = faulty.solver->diagnostics();
  EXPECT_GT(d.restarts + d.direct_columns + d.nonfinite_recoveries, 0l);
  // ... and the model is still within the deterministic route's error bound
  // (clean run on this rig sits around 2e-3, same as the golden pin).
  disarm();
  const double resid = norm2(hit.model.apply(v) - exact) / norm2(exact);
  EXPECT_LT(resid, 10 * ref_resid + 1e-2);

  // Fixed-seed replay: identical model bits and identical fallback lines.
  arm(spec);
  Rig replay;
  const ExtractionResult again =
      Extractor(*replay.solver, replay.layout).extract(replay.request);
  expect_models_bit_equal(hit.model, again.model);
  ASSERT_EQ(again.report.fallbacks.size(), hit.report.fallbacks.size());
  for (std::size_t i = 0; i < hit.report.fallbacks.size(); ++i)
    EXPECT_EQ(again.report.fallbacks[i], hit.report.fallbacks[i]);
}

}  // namespace
}  // namespace subspar
