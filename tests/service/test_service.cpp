// ReductionService basics (service/service.hpp): future and callback
// completion, drain semantics, stats accounting, and the determinism
// contract — identical submission order produces bit-identical results for
// any worker count and sim_threads.
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <vector>

#include "service_test_util.hpp"
#include "testsuite/cases.hpp"

namespace accred::service {
namespace {

using test::drain_or_fail;
using test::make_job;

TEST(Service, FutureResolvesWithVerifiedResult) {
  ReductionService svc;
  std::future<JobResult> fut = svc.submit(make_job());
  const JobResult r = fut.get();
  EXPECT_EQ(r.status, JobStatus::kOk);
  EXPECT_TRUE(r.outcome.verified);
  EXPECT_NE(r.outcome.result_hash, 0u);
  EXPECT_GT(r.job_id, 0u);
  EXPECT_GE(r.service_ms, r.queue_ms);
}

TEST(Service, CallbackRunsOffTheSubmitter) {
  ReductionService svc;
  std::promise<JobResult> delivered;
  svc.submit(make_job(), [&](JobResult r) { delivered.set_value(std::move(r)); });
  const JobResult r = delivered.get_future().get();
  EXPECT_EQ(r.status, JobStatus::kOk);
}

TEST(Service, RepeatTrafficIsAccountedExactly) {
  ReductionService svc;
  std::vector<std::future<JobResult>> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(svc.submit(make_job()));
  for (auto& f : futs) EXPECT_EQ(f.get().status, JobStatus::kOk);
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.completed, 8u);
  EXPECT_EQ(s.submitted, 8u);
  EXPECT_EQ(s.admitted, 8u);
  EXPECT_EQ(s.failed + s.rejected_queue + s.rejected_memory, 0u);
}

TEST(Service, DrainWaitsForEveryAdmittedJob) {
  ServiceConfig cfg;
  cfg.workers = 2;
  ReductionService svc(cfg);
  std::atomic<int> done{0};
  for (int i = 0; i < 12; ++i) {
    svc.submit(make_job("t", acc::Position::kGangWorker, 64),
               [&](JobResult) { ++done; });
  }
  drain_or_fail(svc);
  EXPECT_EQ(done.load(), 12);  // drain => every callback already ran
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.queued + s.inflight, 0u);
  EXPECT_EQ(s.admitted_bytes, 0u);
}

TEST(Service, DestructorFailsQueuedJobsWithRejection) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.start_paused = true;  // nothing dispatches: all jobs die queued
  std::vector<std::future<JobResult>> futs;
  {
    ReductionService svc(cfg);
    for (int i = 0; i < 3; ++i) futs.push_back(svc.submit(make_job()));
  }
  for (auto& f : futs) {
    const JobResult r = f.get();
    EXPECT_EQ(r.status, JobStatus::kRejected);
    EXPECT_NE(r.reject_reason.find("stopped"), std::string::npos);
  }
}

/// The service determinism contract (DESIGN.md §13): for one submission
/// order, every job's verified result is bit-identical no matter how many
/// executor threads or host sim threads run it.
TEST(Service, ResultsAreIdenticalForAnyWorkerCount) {
  const auto grid = testsuite::table2_grid();
  auto run_once = [&](std::uint32_t workers, std::uint32_t sim_threads) {
    ServiceConfig cfg;
    cfg.workers = workers;
    ReductionService svc(cfg);
    std::vector<std::future<JobResult>> futs;
    for (std::size_t i = 0; i < 24; ++i) {
      JobSpec job = make_job("t", grid[i % grid.size()].pos, 96);
      job.kase = grid[i % grid.size()];
      job.sim_threads = sim_threads;
      futs.push_back(svc.submit(std::move(job)));
    }
    std::vector<std::uint64_t> hashes;
    for (auto& f : futs) {
      const JobResult r = f.get();
      EXPECT_EQ(r.status, JobStatus::kOk);
      hashes.push_back(r.outcome.result_hash);
    }
    return hashes;
  };
  const auto serial = run_once(1, 1);
  const auto parallel = run_once(4, 2);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace accred::service
