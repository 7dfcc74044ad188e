// Service job planning (service/job.hpp): plan_job renders a job's
// directive source, parses it back, and plans it. Its plans must match the
// testsuite's own planning of the same cell field for field, a 3-op chain
// must lower to one fused cascade, and a malformed chain must be refused.
#include "service/job.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "service_test_util.hpp"
#include "testsuite/cases.hpp"
#include "testsuite/runner.hpp"

namespace accred::service {
namespace {

using test::expect_plans_equal;
using test::make_job;

TEST(PlanJob, MatchesTestsuitePlanOnTheFullGrid) {
  for (const acc::CompilerId id :
       {acc::CompilerId::kOpenUH, acc::CompilerId::kCapsLike,
        acc::CompilerId::kPgiLike}) {
    for (const testsuite::CaseSpec& kase : testsuite::full_grid()) {
      for (const std::int64_t extent : {256, 1000, 4096}) {
        JobSpec job = make_job("t", kase.pos, extent);
        job.compiler = id;
        job.kase = kase;
        SCOPED_TRACE(std::string(acc::to_string(id)) + " " +
                     std::string(acc::to_string(kase.pos)) + " " +
                     std::string(acc::to_string(kase.op)) + " " +
                     std::string(acc::to_string(kase.type)) + " r=" +
                     std::to_string(extent));
        expect_plans_equal(
            plan_job(job),
            testsuite::plan_for_case(job.compiler, job.kase,
                                     runner_options(job)));
      }
    }
  }
}

TEST(PlanJob, ThreeOpChainPlansOneFusedCascade) {
  JobSpec job = make_job("t", acc::Position::kGangWorkerVector, 130);
  job.chain_ops = {acc::ReductionOp::kSum, acc::ReductionOp::kMax,
                   acc::ReductionOp::kMin};
  const acc::ExecutionPlan plan = plan_job(job);
  EXPECT_EQ(plan.kind, acc::StrategyKind::kFusedCascade);
  ASSERT_EQ(plan.chain.size(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(plan.chain[s].op, job.chain_ops[s]) << "stage " << s;
  }
  EXPECT_EQ(plan.chain[0].level, acc::Par::kVector);
  EXPECT_EQ(plan.chain[1].level, acc::Par::kWorker);
  EXPECT_EQ(plan.chain[2].level, acc::Par::kGang);
}

TEST(PlanJob, TwoOpChainIsRefused) {
  JobSpec job = make_job("t", acc::Position::kGangWorkerVector);
  job.chain_ops = {acc::ReductionOp::kSum, acc::ReductionOp::kSum};
  EXPECT_THROW((void)plan_job(job), std::invalid_argument);
}

}  // namespace
}  // namespace accred::service
