// Resilience layer of the reduction service (DESIGN.md §16): deadlines,
// client cancellation (queued / running / after delivery), per-tenant
// circuit breakers, CoDel overload shedding, retry budgets, the bounded
// drain, and the bit-identity of the whole telemetry registry across
// worker counts and host thread counts while all of it fires.
//
// Every test drives the service in waves (pause -> submit -> resume ->
// drain): at those quiescent points each resilience decision is a pure
// function of the submission sequence, so the assertions are exact.
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "gpusim/pool.hpp"
#include "obs/json.hpp"
#include "service_test_util.hpp"

namespace accred::service {
namespace {

using test::drain_or_fail;
using test::make_job;

constexpr const char* kStickyFault = "warp_abort:block=0,nth=10,sticky";

/// One wave: resume, drain bounded, pause again.
void run_wave(ReductionService& svc) {
  svc.resume();
  ASSERT_EQ(svc.drain(std::chrono::seconds(120)), 0u);
  svc.pause();
}

// ---- cancellation ----------------------------------------------------

TEST(Cancellation, QueuedJobResolvesWithoutLaunching) {
  ServiceConfig cfg;
  cfg.start_paused = true;
  ReductionService svc(cfg);
  auto token = std::make_shared<gpusim::CancelToken>();
  JobSpec job = make_job();
  job.cancel = token;
  auto cancelled = svc.submit(job);
  auto clean = svc.submit(make_job());
  token->cancel();  // while still queued: the dispatcher resolves it
  svc.resume();
  drain_or_fail(svc);

  const JobResult r = cancelled.get();
  EXPECT_EQ(r.status, JobStatus::kCancelled);
  EXPECT_NE(r.reject_reason.find("while queued"), std::string::npos)
      << r.reject_reason;
  EXPECT_EQ(r.outcome.attempts, 1);  // default-constructed: it never ran
  EXPECT_EQ(r.outcome.device_ms, 0.0);
  EXPECT_EQ(clean.get().status, JobStatus::kOk);

  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.cancelled, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.admitted_bytes, 0u);  // the reservation was released
}

TEST(Cancellation, RunningJobEndsStructuredCancelled) {
  ServiceConfig cfg;
  cfg.start_paused = true;
  ReductionService svc(cfg);
  auto token = std::make_shared<gpusim::CancelToken>();
  token->cancel_at_launch(1);  // deterministic mid-flight cancel
  JobSpec job = make_job();
  job.cancel = token;
  auto fut = svc.submit(job);
  svc.resume();
  drain_or_fail(svc);

  const JobResult r = fut.get();
  EXPECT_EQ(r.status, JobStatus::kCancelled);
  EXPECT_TRUE(r.reject_reason.empty());  // it ran: outcome carries the story
  EXPECT_EQ(r.outcome.stats.error.code, gpusim::LaunchErrorCode::kCancelled);
  EXPECT_EQ(svc.stats().cancelled, 1u);
  EXPECT_EQ(svc.stats().completed, 0u);
}

TEST(Cancellation, AfterDeliveryIsANoOp) {
  ReductionService svc;
  auto token = std::make_shared<gpusim::CancelToken>();
  JobSpec job = make_job();
  job.cancel = token;
  auto fut = svc.submit(job);
  drain_or_fail(svc);
  EXPECT_EQ(fut.get().status, JobStatus::kOk);
  token->cancel();  // delivered long ago: nothing to resolve
  EXPECT_EQ(svc.stats().cancelled, 0u);
  EXPECT_EQ(svc.stats().completed, 1u);
}

// The registry dump (and the structured statuses) with cancels in the mix
// must be bit-identical for any worker count and any sim-threads.
TEST(Cancellation, RegistryBitIdenticalAcrossWorkersAndSimThreads) {
  const auto run = [](std::uint32_t workers, std::uint32_t sim_threads) {
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.start_paused = true;
    ReductionService svc(cfg, {{"a", 1.0}, {"c", 1.0}});
    std::vector<std::future<JobResult>> futs;
    auto queued_token = std::make_shared<gpusim::CancelToken>();
    auto midrun_token = std::make_shared<gpusim::CancelToken>();
    midrun_token->cancel_at_launch(1);
    for (int i = 0; i < 3; ++i) {
      JobSpec job = make_job("a");
      job.sim_threads = sim_threads;
      futs.push_back(svc.submit(std::move(job)));
    }
    JobSpec queued = make_job("c");
    queued.sim_threads = sim_threads;
    queued.cancel = queued_token;
    futs.push_back(svc.submit(std::move(queued)));
    JobSpec midrun = make_job("c");
    midrun.sim_threads = sim_threads;
    midrun.cancel = midrun_token;
    futs.push_back(svc.submit(std::move(midrun)));
    queued_token->cancel();
    svc.resume();
    svc.drain();
    std::string statuses;
    for (auto& f : futs) {
      statuses += to_string(f.get().status);
      statuses += ';';
    }
    return svc.metrics_json().dump() + "|" + statuses;
  };
  const std::string base = run(1, 1);
  EXPECT_EQ(run(1, 4), base);
  EXPECT_EQ(run(3, 1), base);
  EXPECT_EQ(run(3, 4), base);
}

// ---- deadlines -------------------------------------------------------

TEST(Deadlines, ExpiredQueuedJobNeverLaunches) {
  ServiceConfig cfg;
  cfg.start_paused = true;
  ReductionService svc(cfg);
  // Arrivals are paced at the running-mean estimate: small jobs first
  // drag that mean down, then the oversized jobs outrun their paced
  // arrivals and the modeled wait climbs — the tight-deadline job queued
  // behind them (FIFO within the tenant) expires before dispatch.
  std::vector<std::future<JobResult>> ok;
  for (int i = 0; i < 6; ++i) ok.push_back(svc.submit(make_job()));
  for (int i = 0; i < 3; ++i) {
    ok.push_back(svc.submit(make_job("t", acc::Position::kGang, 64 * 256)));
  }
  JobSpec tight = make_job();
  tight.deadline_ns = 1;
  auto expired = svc.submit(tight);
  svc.resume();
  drain_or_fail(svc);

  const JobResult r = expired.get();
  EXPECT_EQ(r.status, JobStatus::kDeadlineExceeded);
  EXPECT_NE(r.reject_reason.find("deadline exceeded"), std::string::npos)
      << r.reject_reason;
  for (auto& f : ok) EXPECT_EQ(f.get().status, JobStatus::kOk);
  EXPECT_EQ(svc.stats().deadline_exceeded, 1u);
  EXPECT_EQ(svc.stats().completed, 9u);
}

TEST(Deadlines, GenerousDeadlineNeverFires) {
  ReductionService svc;
  JobSpec job = make_job();
  job.deadline_ns = 1'000'000'000'000ULL;
  auto fut = svc.submit(job);
  drain_or_fail(svc);
  EXPECT_EQ(fut.get().status, JobStatus::kOk);
  EXPECT_EQ(svc.stats().deadline_exceeded, 0u);
}

// ---- circuit breaker -------------------------------------------------

TEST(Breaker, TripsFastFailsHalfOpensAndCloses) {
  ServiceConfig cfg;
  cfg.start_paused = true;
  cfg.breaker_threshold = 2;
  cfg.breaker_cooldown_ns = 1;
  ReductionService svc(cfg, {{"m", 1.0}, {"ok", 1.0}});
  const auto faulty = [&] {
    JobSpec job = make_job("m");
    job.faults = kStickyFault;
    return svc.submit(job);
  };

  // Wave 1: two consecutive structured failures trip the breaker; the
  // clean job consumed after them advances the virtual clock past the
  // cooldown.
  auto f1 = faulty();
  auto f2 = faulty();
  auto ok1 = svc.submit(make_job("ok"));
  run_wave(svc);
  EXPECT_EQ(f1.get().status, JobStatus::kFailed);
  EXPECT_EQ(f2.get().status, JobStatus::kFailed);
  EXPECT_EQ(ok1.get().status, JobStatus::kOk);
  EXPECT_EQ(svc.stats().breaker_opens, 1u);

  // Wave 2: the breaker is half-open — the first submission probes, the
  // second fast-fails behind the in-flight probe. The clean tenant is
  // untouched throughout. The failing probe reopens the breaker.
  auto probe1 = faulty();
  auto behind = svc.submit(make_job("m"));
  const JobResult rejected = behind.get();  // fast-fail resolves inline
  EXPECT_EQ(rejected.status, JobStatus::kCircuitOpen);
  EXPECT_NE(rejected.reject_reason.find("circuit breaker"),
            std::string::npos)
      << rejected.reject_reason;
  auto ok2 = svc.submit(make_job("ok"));
  run_wave(svc);
  EXPECT_EQ(probe1.get().status, JobStatus::kFailed);
  EXPECT_EQ(ok2.get().status, JobStatus::kOk);
  EXPECT_EQ(svc.stats().breaker_opens, 2u);
  EXPECT_EQ(svc.stats().rejected_breaker, 1u);

  // Wave 3: a clean probe closes the breaker; wave 4 runs normally.
  auto probe2 = svc.submit(make_job("m"));
  auto ok3 = svc.submit(make_job("ok"));
  run_wave(svc);
  EXPECT_EQ(probe2.get().status, JobStatus::kOk);
  EXPECT_EQ(ok3.get().status, JobStatus::kOk);
  auto recovered = svc.submit(make_job("m"));
  run_wave(svc);
  EXPECT_EQ(recovered.get().status, JobStatus::kOk);
  EXPECT_EQ(svc.stats().breaker_opens, 2u);  // no further transitions
  EXPECT_EQ(svc.stats().rejected_breaker, 1u);
}

TEST(Breaker, SuccessResetsTheConsecutiveCount) {
  ServiceConfig cfg;
  cfg.start_paused = true;
  cfg.breaker_threshold = 2;
  ReductionService svc(cfg, {{"m", 1.0}});
  // fail, succeed, fail: never two consecutive — the breaker stays closed.
  JobSpec bad = make_job("m");
  bad.faults = kStickyFault;
  auto f1 = svc.submit(bad);
  auto ok = svc.submit(make_job("m"));
  auto f2 = svc.submit(bad);
  run_wave(svc);
  EXPECT_EQ(f1.get().status, JobStatus::kFailed);
  EXPECT_EQ(ok.get().status, JobStatus::kOk);
  EXPECT_EQ(f2.get().status, JobStatus::kFailed);
  EXPECT_EQ(svc.stats().breaker_opens, 0u);
  EXPECT_EQ(svc.stats().rejected_breaker, 0u);
}

// ---- overload shedding -----------------------------------------------

TEST(Shedding, SustainedOverloadShedsYoungestFirst) {
  ServiceConfig cfg;
  cfg.start_paused = true;
  cfg.shed_target_ns = 1000;
  ReductionService svc(cfg);
  std::vector<std::future<JobResult>> futs;
  // Small jobs drag the arrival-pacing mean down; the oversized burst
  // behind them outruns its arrivals and the modeled wait climbs.
  for (int i = 0; i < 8; ++i) futs.push_back(svc.submit(make_job()));
  for (int i = 0; i < 8; ++i) {
    futs.push_back(svc.submit(make_job("t", acc::Position::kGang, 128 * 64)));
  }
  svc.resume();
  drain_or_fail(svc);

  const ServiceStats s = svc.stats();
  EXPECT_GT(s.shed, 0u);
  EXPECT_EQ(s.completed + s.shed, s.admitted);
  // Sheds hit the youngest arrivals: a suffix of the submission order.
  std::size_t first_shed = futs.size();
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const JobResult r = futs[i].get();
    if (r.status == JobStatus::kShed) {
      EXPECT_NE(r.reject_reason.find("shed"), std::string::npos);
      first_shed = std::min(first_shed, i);
    } else {
      EXPECT_EQ(r.status, JobStatus::kOk);
      EXPECT_LT(i, first_shed) << "an older job survived a younger shed";
    }
  }
}

TEST(Shedding, NeverFiresUnderTarget) {
  ServiceConfig cfg;
  cfg.shed_target_ns = 1ULL << 62;  // unreachable target
  ReductionService svc(cfg);
  std::vector<std::future<JobResult>> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(svc.submit(make_job()));
  drain_or_fail(svc);
  for (auto& f : futs) EXPECT_EQ(f.get().status, JobStatus::kOk);
  EXPECT_EQ(svc.stats().shed, 0u);
}

// ---- retry budget + ladder depth -------------------------------------

TEST(RetryBudget, GrantCapsGuardedAttempts) {
  ServiceConfig cfg;
  cfg.start_paused = true;
  cfg.retry_budget_per_sec = 1;  // ~no refill over the campaign's ns scale
  cfg.retry_budget_burst = 3;
  cfg.retry_tokens_per_job = 2;
  ReductionService svc(cfg);
  JobSpec bad = make_job();
  bad.faults = kStickyFault;
  bad.max_retries = 5;  // the budget, not the ladder, must bind
  auto f1 = svc.submit(bad);
  auto f2 = svc.submit(bad);
  auto f3 = svc.submit(bad);
  run_wave(svc);
  // Bucket 3 tokens, 2 per job: grants are 1+2, 1+1, 1+0 attempts.
  EXPECT_EQ(f1.get().outcome.attempts, 3);
  EXPECT_EQ(f2.get().outcome.attempts, 2);
  EXPECT_EQ(f3.get().outcome.attempts, 1);
  const obs::Gauge* g =
      svc.metrics().find_gauge("tenant/t/retry_budget_tokens");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->value(), 0);
}

TEST(RetryBudget, OffByDefaultLeavesLadderUnbounded) {
  ReductionService svc;
  JobSpec bad = make_job();
  bad.faults = kStickyFault;
  bad.max_retries = 2;
  auto fut = svc.submit(bad);
  drain_or_fail(svc);
  EXPECT_GT(fut.get().outcome.attempts, 3);  // retries + the full ladder
}

TEST(LadderDepth, ServiceConfigBoundsDegradeRungs) {
  ServiceConfig cfg;
  cfg.max_degrade_rungs = 0;  // retries only, no plan changes
  ReductionService svc(cfg);
  JobSpec bad = make_job();
  bad.faults = kStickyFault;
  bad.max_retries = 1;
  auto fut = svc.submit(bad);
  drain_or_fail(svc);
  const JobResult r = fut.get();
  EXPECT_EQ(r.status, JobStatus::kFailed);
  EXPECT_EQ(r.outcome.attempts, 2);  // original + 1 retry, ladder barred
}

// ---- bounded drain ---------------------------------------------------

TEST(Drain, TimeoutReportsStillOpenJobs) {
  ServiceConfig cfg;
  cfg.start_paused = true;  // dispatch never runs: the jobs stay open
  ReductionService svc(cfg);
  auto f1 = svc.submit(make_job());
  auto f2 = svc.submit(make_job());
  EXPECT_EQ(svc.drain(std::chrono::milliseconds(50)), 2u);
  svc.resume();
  drain_or_fail(svc);
  EXPECT_EQ(f1.get().status, JobStatus::kOk);
  EXPECT_EQ(f2.get().status, JobStatus::kOk);
}

}  // namespace
}  // namespace accred::service
