// Admission control (service/service.hpp): overload answers with an
// immediate deterministic kRejected — backpressure, never a device OOM —
// against both the occupancy budget and the memory budget; rejected
// traffic never reaches the planner.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <vector>

#include "service/service.hpp"
#include "service_test_util.hpp"

namespace accred::service {
namespace {

using test::drain_or_fail;
using test::make_job;

TEST(Admission, EstimateBytesIsPureAndMonotonic) {
  const JobSpec job = make_job();
  EXPECT_EQ(ReductionService::estimate_bytes(job),
            ReductionService::estimate_bytes(job));
  JobSpec bigger = job;
  bigger.reduction_extent *= 4;
  EXPECT_GT(ReductionService::estimate_bytes(bigger),
            ReductionService::estimate_bytes(job));
  JobSpec wide = job;
  wide.kase.type = acc::DataType::kDouble;
  EXPECT_GT(ReductionService::estimate_bytes(wide),
            ReductionService::estimate_bytes(job));
}

TEST(Admission, OccupancyBudgetRejectsDeterministically) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 4;
  cfg.start_paused = true;  // admission runs, dispatch doesn't
  ReductionService svc(cfg);
  std::vector<std::future<JobResult>> futs;
  for (int i = 0; i < 7; ++i) futs.push_back(svc.submit(make_job()));
  const ServiceStats paused = svc.stats();
  EXPECT_EQ(paused.admitted, 4u);
  EXPECT_EQ(paused.rejected_queue, 3u);
  EXPECT_EQ(paused.rejected_memory, 0u);
  // Rejections resolve immediately, with the budget in the reason.
  for (int i = 4; i < 7; ++i) {
    ASSERT_EQ(futs[static_cast<std::size_t>(i)].wait_for(
                  std::chrono::seconds(0)),
              std::future_status::ready);
    const JobResult r = futs[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(r.status, JobStatus::kRejected);
    EXPECT_NE(r.reject_reason.find("occupancy"), std::string::npos);
  }
  svc.resume();
  drain_or_fail(svc);
  EXPECT_EQ(svc.stats().completed, 4u);
}

TEST(Admission, MemoryBudgetRejectsInsteadOfOom) {
  const JobSpec job = make_job();
  const std::size_t bytes = ReductionService::estimate_bytes(job);
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.memory_budget_bytes = 2 * bytes;  // room for exactly two jobs
  cfg.start_paused = true;
  ReductionService svc(cfg);
  std::vector<std::future<JobResult>> futs;
  for (int i = 0; i < 4; ++i) futs.push_back(svc.submit(job));
  const ServiceStats paused = svc.stats();
  EXPECT_EQ(paused.admitted, 2u);
  EXPECT_EQ(paused.rejected_memory, 2u);
  EXPECT_EQ(paused.admitted_bytes, 2 * bytes);
  const JobResult r = futs[2].get();
  EXPECT_EQ(r.status, JobStatus::kRejected);
  EXPECT_NE(r.reject_reason.find("memory"), std::string::npos);
  svc.resume();
  drain_or_fail(svc);
  // Completion releases the reservation.
  EXPECT_EQ(svc.stats().admitted_bytes, 0u);
  EXPECT_EQ(svc.stats().completed, 2u);
}

TEST(Admission, RejectionsNeverPlan) {
  // plan_job throws on a 2-op chain, so a submission of this spec that
  // reached the planner would resolve kFailed and count in stats().failed.
  JobSpec unplannable = make_job();
  unplannable.chain_ops = {acc::ReductionOp::kSum, acc::ReductionOp::kSum};
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  cfg.start_paused = true;
  ReductionService svc(cfg);
  std::vector<std::future<JobResult>> held;
  for (int i = 0; i < 2; ++i) held.push_back(svc.submit(make_job()));
  for (int i = 0; i < 8; ++i) {
    const JobResult r = svc.submit(unplannable).get();
    EXPECT_EQ(r.status, JobStatus::kRejected);
    EXPECT_NE(r.reject_reason.find("occupancy"), std::string::npos);
  }
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.rejected_queue, 8u);
  EXPECT_EQ(s.failed, 0u) << "a rejected submission must never be planned";
  svc.resume();
  drain_or_fail(svc);
  for (auto& f : held) EXPECT_EQ(f.get().status, JobStatus::kOk);

  // Control: under budget the same spec is admitted, reaches the planner,
  // and fails there as a structured kFailed.
  const JobResult control = svc.submit(unplannable).get();
  EXPECT_EQ(control.status, JobStatus::kFailed);
  EXPECT_NE(control.outcome.detail.find("planning failed"), std::string::npos)
      << control.outcome.detail;
  EXPECT_EQ(svc.stats().failed, 1u);
}

TEST(Admission, BudgetFreesAsJobsComplete) {
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 8;
  ReductionService svc(cfg);
  // 3x the budget in total traffic, but never more than `capacity` open at
  // once: with completion-aware pacing every submission is admitted.
  for (int wave = 0; wave < 3; ++wave) {
    std::vector<std::future<JobResult>> futs;
    for (int i = 0; i < 8; ++i) futs.push_back(svc.submit(make_job()));
    for (auto& f : futs) EXPECT_EQ(f.get().status, JobStatus::kOk);
  }
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.completed, 24u);
  EXPECT_EQ(s.rejected_queue + s.rejected_memory, 0u);
}

}  // namespace
}  // namespace accred::service
