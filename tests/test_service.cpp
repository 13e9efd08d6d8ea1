// ExtractionService suite: the concurrent job engine's contract.
//
//  - a single-client service run is bit-identical to the direct Extractor
//    path (and to a ModelCache run): the service adds orchestration, never
//    different numerics;
//  - in-flight deduplication: N client threads x M distinct requests cost
//    exactly M extractions' worth of black-box solves;
//  - cancellation and deadlines release every waiter with the typed
//    kCancelled / kDeadlineExceeded error, even mid-solve;
//  - transient failures (injected at the 'q' queue site) retry with the
//    recorded attempt history and then succeed — or exhaust the policy and
//    fail typed; both replay deterministically by seed;
//  - admission control sheds on a full queue with kOverloaded, immediately;
//  - the sharded ModelCache serves concurrent hits and enforces its LRU
//    memory budget.
//
// Links tests/support/hermetic_env.cpp (ambient SUBSPAR_FAULT is stripped so
// the bit-exactness assertions survive CI's fault matrix); the retry tests
// re-arm the harness explicitly via setenv + fault_reset.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "subspar/subspar.hpp"
#include "util/fault.hpp"

namespace subspar {
namespace {

SubstrateStack test_stack() { return paper_stack(40.0); }
Layout test_layout() { return regular_grid_layout(8); }

ExtractionRequest test_request(std::uint64_t seed = 0) {
  ExtractionRequest request{.method = SparsifyMethod::kLowRank,
                            .threshold_sparsity_multiple = 6.0};
  request.lowrank.seed = seed;
  return request;
}

std::shared_ptr<SubstrateSolver> fresh_solver(const Layout& layout,
                                              const SubstrateStack& stack) {
  return std::shared_ptr<SubstrateSolver>(make_solver(SolverKind::kSurface, layout, stack));
}

void expect_models_bit_equal(const SparsifiedModel& a, const SparsifiedModel& b) {
  ASSERT_EQ(a.q().nnz(), b.q().nnz());
  ASSERT_EQ(a.gw().nnz(), b.gw().nnz());
  EXPECT_EQ((a.q().to_dense() - b.q().to_dense()).max_abs(), 0.0);
  EXPECT_EQ((a.gw().to_dense() - b.gw().to_dense()).max_abs(), 0.0);
}

/// Wrapper that sleeps before every batched solve: makes extraction slow
/// enough to cancel / deadline mid-pipeline deterministically. Forwards the
/// inner tag (prefixed) so slow and fast runs never share a cache key.
class SlowSolver : public SubstrateSolver {
 public:
  SlowSolver(std::unique_ptr<SubstrateSolver> inner, double sleep_ms)
      : inner_(std::move(inner)), sleep_ms_(sleep_ms) {}
  std::size_t n_contacts() const override { return inner_->n_contacts(); }
  std::string name() const override { return "slow(" + inner_->name() + ")"; }
  std::string cache_tag() const override { return "slow:" + inner_->cache_tag(); }

 protected:
  Vector do_solve(const Vector& v) const override {
    nap();
    return inner_->solve(v);
  }
  Matrix do_solve_many(const Matrix& v) const override {
    nap();
    return inner_->solve_many(v);
  }

 private:
  void nap() const {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(sleep_ms_));
  }
  std::unique_ptr<SubstrateSolver> inner_;
  double sleep_ms_;
};

std::shared_ptr<SubstrateSolver> slow_solver(const Layout& layout, const SubstrateStack& stack,
                                             double sleep_ms) {
  return std::make_shared<SlowSolver>(make_solver(SolverKind::kSurface, layout, stack),
                                      sleep_ms);
}

void spin_until_running(const ExtractionJob& job) {
  while (job.status() == JobStatus::kQueued)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

/// Arms/disarms SUBSPAR_FAULT around a test (hermetic_env stripped the
/// ambient value pre-main; this owns it explicitly).
class ServiceFaultEnv : public ::testing::Test {
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

// ------------------------------------------------------------- determinism

TEST(Service, SingleClientIsBitIdenticalToDirectExtractorPath) {
  const SubstrateStack stack = test_stack();
  const Layout layout = test_layout();
  const ExtractionRequest request = test_request();

  const auto direct_solver = fresh_solver(layout, stack);
  const ExtractionResult direct = Extractor(*direct_solver, layout).extract(request);

  ExtractionService service({.workers = 2});
  ExtractionJob job = service.submit(fresh_solver(layout, stack), layout, stack, request);
  ASSERT_TRUE(job.valid());
  const Status status = job.wait();
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(job.status(), JobStatus::kSucceeded);
  expect_models_bit_equal(direct.model, job.result().model);
  EXPECT_FALSE(job.result().report.from_cache);
  EXPECT_TRUE(job.result().report.attempts.empty());
  EXPECT_TRUE(job.attempt_history().empty());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.succeeded, 1u);
  EXPECT_EQ(stats.failed + stats.cancelled + stats.deadline_expired + stats.shed, 0u);
}

TEST(Service, RepeatSubmissionAfterCompletionIsACacheHit) {
  const SubstrateStack stack = test_stack();
  const Layout layout = test_layout();
  ExtractionService service({.workers = 1});
  const auto solver = fresh_solver(layout, stack);

  ExtractionJob first = service.submit(solver, layout, stack, test_request());
  ASSERT_TRUE(first.wait().ok());
  const long solves_after_first = solver->solve_count();
  EXPECT_GT(solves_after_first, 0);

  ExtractionJob second = service.submit(solver, layout, stack, test_request());
  ASSERT_TRUE(second.wait().ok());
  EXPECT_TRUE(second.result().report.from_cache);
  EXPECT_EQ(solver->solve_count(), solves_after_first);  // zero new solves
  expect_models_bit_equal(first.result().model, second.result().model);
  EXPECT_GE(service.stats().cache_hits, 1u);
}

// ------------------------------------------------------------------- dedup

TEST(Service, DedupNThreadsTimesMKeysCostsExactlyMExtractions) {
  const SubstrateStack stack = test_stack();
  const Layout layout = test_layout();
  constexpr int kClients = 4;
  constexpr int kKeys = 2;

  // Serial reference: one extraction per key, counting its solves.
  std::vector<ExtractionResult> serial;
  long serial_solves = 0;
  for (int k = 0; k < kKeys; ++k) {
    const auto solver = fresh_solver(layout, stack);
    serial.push_back(Extractor(*solver, layout).extract(test_request(k)));
    serial_solves += solver->solve_count();
  }

  // Service traffic: every client submits every key. One shared solver per
  // key (dedup guarantees at most one extraction of a key runs at a time;
  // distinct keys get distinct instances).
  ExtractionService service({.workers = 4});
  std::vector<std::shared_ptr<SubstrateSolver>> solvers;
  for (int k = 0; k < kKeys; ++k) solvers.push_back(fresh_solver(layout, stack));

  std::vector<std::vector<ExtractionJob>> jobs(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      for (int k = 0; k < kKeys; ++k)
        jobs[c].push_back(service.submit(solvers[k], layout, stack, test_request(k)));
    });
  for (std::thread& t : clients) t.join();

  long service_solves = 0;
  for (int c = 0; c < kClients; ++c)
    for (int k = 0; k < kKeys; ++k) {
      const Status status = jobs[c][k].wait();
      ASSERT_TRUE(status.ok()) << status.message();
      expect_models_bit_equal(serial[k].model, jobs[c][k].result().model);
    }
  for (const auto& solver : solvers) service_solves += solver->solve_count();

  // The dedup invariant: N x M submissions, exactly M extractions' worth of
  // black-box solves (late submitters that miss the in-flight window get a
  // zero-solve cache hit instead).
  EXPECT_EQ(service_solves, serial_solves);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted + stats.deduped, static_cast<std::size_t>(kClients * kKeys));
  EXPECT_EQ(stats.succeeded, stats.accepted);
  EXPECT_EQ(stats.in_flight, 0u);
}

// ---------------------------------------------- cancellation and deadlines

TEST(Service, CancellationMidExtractionReleasesEveryWaiterTyped) {
  const SubstrateStack stack = test_stack();
  const Layout layout = test_layout();
  ExtractionService service({.workers = 1});
  ExtractionJob job =
      service.submit(slow_solver(layout, stack, 100.0), layout, stack, test_request());
  ExtractionJob attached =
      service.submit(slow_solver(layout, stack, 100.0), layout, stack, test_request());
  EXPECT_EQ(attached.key(), job.key());
  EXPECT_EQ(service.stats().deduped, 1u);

  std::atomic<bool> waiter_released{false};
  ExtractionError waiter_error;
  std::thread waiter([&] {
    attached.wait();
    waiter_error = attached.error();
    waiter_released.store(true);
  });

  spin_until_running(job);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // inside a solve nap
  job.cancel();
  const Status status = job.wait();
  waiter.join();

  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kCancelled);
  EXPECT_EQ(job.status(), JobStatus::kCancelled);
  EXPECT_TRUE(waiter_released.load());
  EXPECT_EQ(waiter_error.code, ErrorCode::kCancelled);
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(Service, DeadlineExpiryUnderSlowSolveFailsTyped) {
  const SubstrateStack stack = test_stack();
  const Layout layout = test_layout();
  ExtractionService service({.workers = 1});
  ExtractionJob job = service.submit(slow_solver(layout, stack, 60.0), layout, stack,
                                     test_request(), {.deadline_ms = 25.0});
  const Status status = job.wait();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(job.status(), JobStatus::kDeadlineExpired);
  EXPECT_EQ(service.stats().deadline_expired, 1u);
}

// ------------------------------------------------------------------ retry

TEST_F(ServiceFaultEnv, TransientQueueFaultRetriesThenSucceedsWithHistory) {
  // Rate 1 with cooldown 10 at the queue site: attempt 1 of the first job
  // takes the injected transient kIoError, attempt 2 runs inside the
  // cooldown window and succeeds. Deterministic for the fixed seed.
  arm("11:1:10:q");
  const SubstrateStack stack = test_stack();
  const Layout layout = test_layout();
  ExtractionService service(
      {.workers = 1, .retry = {.max_attempts = 3, .base_backoff_ms = 1.0}});
  ExtractionJob job = service.submit(fresh_solver(layout, stack), layout, stack,
                                     test_request());
  const Status status = job.wait();
  ASSERT_TRUE(status.ok()) << status.message();
  ASSERT_EQ(job.attempt_history().size(), 1u);
  EXPECT_NE(job.attempt_history()[0].find("io-error"), std::string::npos);
  ASSERT_EQ(job.result().report.attempts.size(), 1u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.retried, 1u);
  EXPECT_EQ(stats.succeeded, 1u);
  EXPECT_EQ(stats.failed, 0u);

  // The successful model is still bit-identical to a fault-free direct run:
  // the queue fault precedes the attempt, it never perturbs numerics.
  disarm();
  const auto direct_solver = fresh_solver(layout, stack);
  const ExtractionResult direct = Extractor(*direct_solver, layout).extract(test_request());
  expect_models_bit_equal(direct.model, job.result().model);
}

TEST_F(ServiceFaultEnv, ExhaustedRetryPolicyFailsTypedWithFullHistory) {
  arm("11:1:0:q");  // every attempt dies at the queue site
  const SubstrateStack stack = test_stack();
  const Layout layout = test_layout();
  ExtractionService service(
      {.workers = 1, .retry = {.max_attempts = 2, .base_backoff_ms = 1.0}});
  ExtractionJob job = service.submit(fresh_solver(layout, stack), layout, stack,
                                     test_request());
  const Status status = job.wait();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kIoError);
  EXPECT_EQ(job.status(), JobStatus::kFailed);
  EXPECT_EQ(job.attempt_history().size(), 2u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.retried, 1u);
  EXPECT_EQ(stats.failed, 1u);

  // Failed jobs are not memoized: with the harness disarmed, resubmitting
  // the same key extracts fresh and succeeds.
  disarm();
  ExtractionJob retry = service.submit(fresh_solver(layout, stack), layout, stack,
                                       test_request());
  EXPECT_TRUE(retry.wait().ok());
}

TEST_F(ServiceFaultEnv, CancelDuringRetryBackoffReleasesPromptly) {
  // Regression for the lost-wakeup race fixed in the sync migration:
  // ExtractionJob::cancel() used to flip the token and notify the job cv
  // WITHOUT holding the job mutex, while backoff_wait checks the token and
  // then parks under that mutex — a notify landing in between was lost and
  // the worker slept out the full backoff. With a 60 s base backoff this
  // test hangs (and times out) under the old code; with the notify taken
  // under the job mutex the cancel releases the job within milliseconds.
  // Cooldown 10: attempt 1 takes the injected fault and backs off; the
  // post-cancel attempt skips injection so the token check classifies the
  // interruption as kCancelled (injection precedes the token check).
  arm("11:1:10:q");
  const SubstrateStack stack = test_stack();
  const Layout layout = test_layout();
  ExtractionService service(
      {.workers = 1, .retry = {.max_attempts = 3, .base_backoff_ms = 60000.0}});
  ExtractionJob job = service.submit(fresh_solver(layout, stack), layout, stack,
                                     test_request());
  // First attempt recorded => the worker is entering (or inside) its backoff.
  while (job.attempt_history().empty())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  job.cancel();
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(job.wait_for(20000.0)) << "cancel lost during backoff park";
  const double waited_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(waited_ms, 10000.0);  // far below the 60 s backoff
  EXPECT_EQ(job.status(), JobStatus::kCancelled);
  EXPECT_EQ(job.error().code, ErrorCode::kCancelled);
  EXPECT_EQ(service.stats().cancelled, 1u);
}

// -------------------------------------------------------- admission control

TEST(Service, FullQueueShedsImmediatelyWithOverloaded) {
  const SubstrateStack stack = test_stack();
  const Layout layout = test_layout();
  ExtractionService service({.workers = 1, .queue_capacity = 1});

  // Occupy the single worker, then fill the single queue slot.
  ExtractionJob running =
      service.submit(slow_solver(layout, stack, 50.0), layout, stack, test_request(1));
  spin_until_running(running);
  ExtractionJob queued =
      service.submit(slow_solver(layout, stack, 50.0), layout, stack, test_request(2));

  ExtractionJob shed =
      service.submit(slow_solver(layout, stack, 50.0), layout, stack, test_request(3));
  EXPECT_EQ(shed.status(), JobStatus::kShed);
  EXPECT_EQ(shed.error().code, ErrorCode::kOverloaded);
  EXPECT_TRUE(shed.wait_for(0.0));  // already terminal: no blocking
  EXPECT_FALSE(shed.wait().ok());
  EXPECT_EQ(service.stats().shed, 1u);

  running.cancel();
  queued.cancel();
  running.wait();
  queued.wait();
}

TEST(Service, InvalidSubmissionsFailImmediatelyWithoutThrowing) {
  const SubstrateStack stack = test_stack();
  const Layout layout = test_layout();
  ExtractionService service({.workers = 1});

  ExtractionJob null_solver = service.submit(nullptr, layout, stack, test_request());
  EXPECT_EQ(null_solver.status(), JobStatus::kFailed);
  EXPECT_EQ(null_solver.error().code, ErrorCode::kInvalidRequest);

  ExtractionRequest bad = test_request();
  bad.lowrank.sigma_rel_tol = 2.0;  // outside (0, 1]
  ExtractionJob invalid = service.submit(fresh_solver(layout, stack), layout, stack, bad);
  EXPECT_EQ(invalid.status(), JobStatus::kFailed);
  EXPECT_EQ(invalid.error().code, ErrorCode::kInvalidRequest);
  EXPECT_FALSE(invalid.wait().ok());
  EXPECT_EQ(service.stats().accepted, 0u);
}

TEST(Service, ShutdownCancelsOutstandingWorkAndRejectsNewSubmissions) {
  const SubstrateStack stack = test_stack();
  const Layout layout = test_layout();
  ExtractionService service({.workers = 1});
  ExtractionJob running =
      service.submit(slow_solver(layout, stack, 50.0), layout, stack, test_request());
  spin_until_running(running);
  service.shutdown();
  EXPECT_TRUE(job_status_terminal(running.status()));
  EXPECT_EQ(running.status(), JobStatus::kCancelled);

  ExtractionJob late = service.submit(fresh_solver(layout, stack), layout, stack,
                                      test_request());
  EXPECT_EQ(late.status(), JobStatus::kShed);
  EXPECT_EQ(late.error().code, ErrorCode::kOverloaded);
}

// ------------------------------------------------------- thread-safe cache

TEST(ServiceCache, ConcurrentHitsServeBitEqualCopiesWithoutSolves) {
  const SubstrateStack stack = test_stack();
  const Layout layout = test_layout();
  const auto solver = fresh_solver(layout, stack);
  ModelCache cache;
  const ExtractionResult warm = cache.get_or_extract(*solver, layout, stack, test_request());
  const long warm_solves = solver->solve_count();

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      const ExtractionResult hit =
          cache.get_or_extract(*solver, layout, stack, test_request());
      if (!hit.report.from_cache ||
          (hit.model.gw().to_dense() - warm.model.gw().to_dense()).max_abs() != 0.0)
        mismatches.fetch_add(1);
    });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(solver->solve_count(), warm_solves);  // hits consume zero solves
  EXPECT_EQ(cache.stats().hits, static_cast<std::size_t>(kThreads));
}

TEST(ServiceCache, MemoryBudgetEvictsLeastRecentlyUsedButNeverLast) {
  const SubstrateStack stack = test_stack();
  const Layout layout = test_layout();
  ModelCache cache;
  const auto solver = fresh_solver(layout, stack);
  const ExtractionResult first = cache.get_or_extract(*solver, layout, stack, test_request(0));
  const std::size_t one_model = model_memory_bytes(first.model);
  ASSERT_GT(one_model, 0u);

  // Budget for ~two resident models, then insert four distinct keys.
  cache.set_memory_budget(2 * one_model + one_model / 2);
  for (std::uint64_t k = 1; k < 4; ++k)
    cache.get_or_extract(*solver, layout, stack, test_request(k));
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_LE(cache.memory_bytes(), cache.memory_budget());
  EXPECT_GE(cache.size(), 1u);
  EXPECT_FALSE(cache.contains(*solver, layout, stack, test_request(0)));  // LRU victim
  EXPECT_TRUE(cache.contains(*solver, layout, stack, test_request(3)));   // newest survives

  // A budget smaller than any single model keeps exactly the newest entry.
  cache.set_memory_budget(one_model / 2);
  EXPECT_EQ(cache.size(), 1u);
  const ExtractionResult still = cache.get_or_extract(*solver, layout, stack, test_request(3));
  EXPECT_TRUE(still.report.from_cache);
}

}  // namespace
}  // namespace subspar
