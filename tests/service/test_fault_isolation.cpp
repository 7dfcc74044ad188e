// Fault isolation (service/service.hpp): every job runs guarded on its
// own simulated Device, so one tenant's injected fault campaign degrades
// that tenant's jobs only — the other tenants' results stay bit-identical
// to a run with no campaign at all (CaseOutcome::result_hash).
#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "service/service.hpp"
#include "service_test_util.hpp"
#include "testsuite/cases.hpp"

namespace accred::service {
namespace {

using test::make_job;

/// Submit an interleaved two-tenant workload; arm `faults` on every job of
/// tenant "victim". Returns (victim results, clean-tenant result hashes in
/// submission order).
std::pair<std::vector<JobResult>, std::vector<std::uint64_t>> run_mixed(
    const std::string& faults, std::uint32_t workers) {
  ServiceConfig cfg;
  cfg.workers = workers;
  ReductionService svc(cfg, {{"clean", 1.0}, {"victim", 1.0}});
  const auto grid = testsuite::table2_grid();
  std::vector<std::future<JobResult>> futs;
  for (std::size_t i = 0; i < 16; ++i) {
    JobSpec job = make_job(i % 2 == 0 ? "clean" : "victim",
                           grid[i % grid.size()].pos, 96);
    job.kase = grid[i % grid.size()];
    if (job.tenant == "victim") job.faults = faults;
    futs.push_back(svc.submit(std::move(job)));
  }
  std::vector<JobResult> victim;
  std::vector<std::uint64_t> clean_hashes;
  for (auto& f : futs) {
    JobResult r = f.get();
    if (r.tenant == "victim") {
      victim.push_back(std::move(r));
    } else {
      EXPECT_EQ(r.status, JobStatus::kOk);
      clean_hashes.push_back(r.outcome.result_hash);
    }
  }
  return {std::move(victim), std::move(clean_hashes)};
}

TEST(FaultIsolation, VictimCampaignLeavesCleanTenantBitIdentical) {
  const auto [v_clean, clean_baseline] = run_mixed("", 2);
  for (const JobResult& r : v_clean) {
    EXPECT_EQ(r.status, JobStatus::kOk);
    EXPECT_EQ(r.outcome.attempts, 1);
  }
  // Mid-kernel abort campaign on the victim: its jobs take the guarded
  // retry (the arm is one-shot per launch), the clean tenant must not
  // notice — same hashes, bit for bit, while running concurrently.
  const auto [victim, clean_under_fire] =
      run_mixed("warp_abort:block=0,nth=3", 2);
  EXPECT_EQ(clean_under_fire, clean_baseline);
  bool any_event = false;
  for (const JobResult& r : victim) {
    EXPECT_EQ(r.status, JobStatus::kOk) << "warp_abort is recoverable";
    any_event |= r.outcome.attempts > 1 || r.outcome.recovered;
    EXPECT_TRUE(r.outcome.stats.faults_armed);
  }
  EXPECT_TRUE(any_event) << "the campaign must actually have fired";
}

TEST(FaultIsolation, StickyCorruptionDegradesOnlyTheVictim) {
  const auto [v_clean, clean_baseline] = run_mixed("", 1);
  (void)v_clean;
  // A sticky tree bitflip survives plain retries; the victim's jobs walk
  // the degradation ladder (or exhaust it) while the clean tenant's
  // results stay untouched.
  const auto [victim, clean_under_fire] =
      run_mixed("bitflip@tree:block=0,bit=62,seed=2,sticky", 1);
  EXPECT_EQ(clean_under_fire, clean_baseline);
  for (const JobResult& r : victim) {
    if (r.status == JobStatus::kOk && r.outcome.attempts > 1) continue;
    // Even a victim job that failed outright must have failed cleanly —
    // structured error, no crash, service kept running.
    if (r.status == JobStatus::kFailed) {
      EXPECT_FALSE(r.outcome.detail.empty());
    }
  }
}

TEST(FaultIsolation, InjectedAllocFailureIsPerDevice) {
  // alloc_fail arms on the victim job's own Device; the guarded ladder's
  // retry recovers it, and no other job ever sees the arm.
  ServiceConfig cfg;
  cfg.workers = 2;
  ReductionService svc(cfg);
  std::vector<std::future<JobResult>> futs;
  for (int i = 0; i < 6; ++i) {
    JobSpec job = make_job();
    if (i == 2) job.faults = "alloc_fail@input";
    futs.push_back(svc.submit(std::move(job)));
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const JobResult r = futs[i].get();
    EXPECT_EQ(r.status, JobStatus::kOk);
    if (i == 2) {
      EXPECT_GT(r.outcome.attempts, 1) << "the arm must have fired";
    } else {
      EXPECT_EQ(r.outcome.attempts, 1) << "no spillover onto job " << i;
    }
  }
}

}  // namespace
}  // namespace accred::service
