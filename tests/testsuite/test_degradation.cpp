// Tests of the graceful-degradation executor (acc/executor.hpp) and the
// testsuite runner's recovery plumbing: retry, non-sticky fault stripping,
// the degradation ladder (all-barriers tree, then geometry shrink), the
// runner's buffer allocations inside the ladder's attempts, and the
// campaign accounting that must survive every one of those paths — for
// Table 2 and extended-kind cells.
#include "acc/executor.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "gpusim/pool.hpp"
#include "testsuite/runner.hpp"

namespace accred {
namespace {

using acc::DegradeEvent;
using acc::GuardPolicy;
using gpusim::FaultKind;
using gpusim::LaunchErrorCode;

testsuite::RunnerOptions small_opts() {
  testsuite::RunnerOptions o;
  o.reduction_extent = 1 << 9;
  o.config.num_gangs = 8;  // scaled like test_runner.cpp: quick, same shapes
  o.config.num_workers = 4;
  o.config.vector_length = 64;
  o.sim_threads = 1;
  return o;
}

const testsuite::CaseSpec kGangSumInt{acc::Position::kGang,
                                      acc::ReductionOp::kSum,
                                      acc::DataType::kInt32};

/// A gang-sum plan plus trivial bindings (every contribution is 1), for
/// driving execute_guarded directly.
struct GuardFixture {
  gpusim::Device dev;
  acc::ExecutionPlan plan;
  reduce::Bindings<std::int32_t> bindings;

  explicit GuardFixture(const testsuite::RunnerOptions& opts = small_opts())
      : plan(testsuite::plan_for_case(acc::CompilerId::kOpenUH, kGangSumInt,
                                      opts)) {
    plan.strategy.sim.sim_threads = 1;
    bindings.contrib = reduce::per_lane([](gpusim::ThreadCtx&, std::int64_t,
                                           std::int64_t, std::int64_t) {
      return std::int32_t{1};
    });
  }
};

TEST(ExecutorGuard, CleanRunSucceedsFirstAttempt) {
  GuardFixture fx;
  const auto out = acc::execute_guarded<std::int32_t>(fx.dev, fx.plan,
                                                      fx.bindings);
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_FALSE(out.recovered);
  EXPECT_FALSE(out.degraded);
  EXPECT_TRUE(out.events.empty());
  EXPECT_FALSE(out.faults_armed);
}

TEST(ExecutorGuard, RecoversWhenTheGuardPassesOnRetry) {
  GuardFixture fx;
  int calls = 0;
  const auto out = acc::execute_guarded<std::int32_t>(
      fx.dev, fx.plan, fx.bindings, {},
      [&](const reduce::ReduceResult<std::int32_t>&, std::string& why) {
        if (++calls == 1) {
          why = "transient mismatch";
          return false;
        }
        return true;
      });
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.attempts, 2);
  EXPECT_TRUE(out.recovered);
  EXPECT_FALSE(out.degraded);  // same rung, no plan change
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_EQ(out.events[0].code, LaunchErrorCode::kNumericGuard);
  EXPECT_EQ(out.events[0].action, "retry");
}

TEST(ExecutorGuard, LadderWalksTreeThenGeometryThenGivesUp) {
  GuardFixture fx;
  ASSERT_TRUE(fx.plan.strategy.tree.unroll_last_warp);
  const std::uint32_t v0 = fx.plan.launch.vector_length;
  const auto out = acc::execute_guarded<std::int32_t>(
      fx.dev, fx.plan, fx.bindings, GuardPolicy{.max_retries = 0},
      [](const reduce::ReduceResult<std::int32_t>&, std::string& why) {
        why = "forced failure";
        return false;
      });
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.error.code, LaunchErrorCode::kNumericGuard);
  EXPECT_FALSE(out.degraded);  // only a successful degraded run counts
  ASSERT_FALSE(out.events.empty());
  EXPECT_EQ(out.events.front().action,
            "degrade: all-barriers tree (unroll_last_warp off)");
  EXPECT_EQ(out.events.back().action, "give up");
  // The terminal plan sits on the ladder's bottom rung.
  EXPECT_FALSE(out.strategy.tree.unroll_last_warp);
  EXPECT_EQ(out.launch.vector_length, 32u);
  EXPECT_EQ(out.launch.num_workers, 1u);
  // One attempt per rung with max_retries = 0: tree + vector halvings +
  // worker halvings, bounded by the geometry.
  EXPECT_EQ(static_cast<std::size_t>(out.attempts), out.events.size());
  EXPECT_GT(v0, 32u);  // the fixture actually had rungs to walk
}

TEST(ExecutorGuard, NoDegradePolicyStopsAfterRetries) {
  GuardFixture fx;
  const auto out = acc::execute_guarded<std::int32_t>(
      fx.dev, fx.plan, fx.bindings,
      GuardPolicy{.max_retries = 2, .degrade = false},
      [](const reduce::ReduceResult<std::int32_t>&, std::string& why) {
        why = "forced failure";
        return false;
      });
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.attempts, 3);  // the original try + 2 retries
  EXPECT_EQ(out.events.back().action, "give up");
  // The plan was never touched.
  EXPECT_TRUE(out.strategy.tree.unroll_last_warp);
}

TEST(ExecutorGuard, NonStickyInjectedAbortIsStrippedAndRecovered) {
  GuardFixture fx;
  fx.plan.strategy.sim.faults = "warp_abort:block=0";
  const auto out = acc::execute_guarded<std::int32_t>(fx.dev, fx.plan,
                                                      fx.bindings);
  EXPECT_TRUE(out.ok);
  EXPECT_TRUE(out.recovered);
  EXPECT_EQ(out.attempts, 2);
  EXPECT_TRUE(out.faults_armed);
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_EQ(out.events[0].code, LaunchErrorCode::kWarpAbort);
  EXPECT_EQ(out.events[0].action, "strip non-sticky faults and retry");
  // The aborted attempt's fired event survived on the thrown error.
  ASSERT_FALSE(out.fault_events.empty());
  EXPECT_EQ(out.fault_events[0].kind, FaultKind::kWarpAbort);
}

TEST(ExecutorGuard, EventsRecordRungAndFailureOrdinal) {
  GuardFixture fx;
  const auto out = acc::execute_guarded<std::int32_t>(
      fx.dev, fx.plan, fx.bindings, GuardPolicy{.max_retries = 1},
      [](const reduce::ReduceResult<std::int32_t>&, std::string& why) {
        why = "forced failure";
        return false;
      });
  EXPECT_FALSE(out.ok);
  ASSERT_GE(out.events.size(), 3u);
  // Two failures on rung 0 (original + retry), then the ladder descends:
  // each event pins the rung it ran on and its ordinal within that rung.
  EXPECT_EQ(out.events[0].rung, 0);
  EXPECT_EQ(out.events[0].failure_on_rung, 1);
  EXPECT_EQ(out.events[0].action, "retry");
  EXPECT_EQ(out.events[1].rung, 0);
  EXPECT_EQ(out.events[1].failure_on_rung, 2);
  EXPECT_EQ(out.events[2].rung, 1);
  EXPECT_EQ(out.events[2].failure_on_rung, 1);
  // The terminal event sits on the deepest rung reached.
  EXPECT_EQ(out.events.back().action, "give up");
  EXPECT_GT(out.events.back().rung, 1);
}

TEST(ExecutorGuard, MaxDegradeRungsBoundsTheLadder) {
  GuardFixture fx;
  ASSERT_TRUE(fx.plan.strategy.tree.unroll_last_warp);
  const std::uint32_t v0 = fx.plan.launch.vector_length;
  const auto out = acc::execute_guarded<std::int32_t>(
      fx.dev, fx.plan, fx.bindings,
      GuardPolicy{.max_retries = 0, .max_degrade_rungs = 1},
      [](const reduce::ReduceResult<std::int32_t>&, std::string& why) {
        why = "forced failure";
        return false;
      });
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.attempts, 2);  // rung 0, rung 1, then the bound stops it
  ASSERT_EQ(out.events.size(), 2u);
  EXPECT_EQ(out.events[0].action,
            "degrade: all-barriers tree (unroll_last_warp off)");
  EXPECT_EQ(out.events[1].action, "give up");
  // Only the tree rung was taken: the geometry was never touched.
  EXPECT_FALSE(out.strategy.tree.unroll_last_warp);
  EXPECT_EQ(out.launch.vector_length, v0);
}

TEST(ExecutorGuard, AttemptBudgetIsTerminal) {
  GuardFixture fx;
  const auto out = acc::execute_guarded<std::int32_t>(
      fx.dev, fx.plan, fx.bindings,
      GuardPolicy{.max_retries = 5, .max_total_attempts = 2},
      [](const reduce::ReduceResult<std::int32_t>&, std::string& why) {
        why = "forced failure";
        return false;
      });
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.attempts, 2);  // the budget cuts the same-rung retries short
  EXPECT_EQ(out.events.back().action, "attempt budget exhausted: give up");
  EXPECT_EQ(out.error.code, LaunchErrorCode::kNumericGuard);
}

TEST(ExecutorGuard, ClientCancellationIsTerminal) {
  GuardFixture fx;
  auto token = std::make_shared<gpusim::CancelToken>();
  token->cancel_at_launch(1);  // cancel at the first kernel-launch entry
  fx.plan.strategy.sim.cancel_token = token;
  const auto out = acc::execute_guarded<std::int32_t>(fx.dev, fx.plan,
                                                      fx.bindings);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.attempts, 1);  // no retry, no ladder: the client walked away
  EXPECT_EQ(out.error.code, LaunchErrorCode::kCancelled);
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_EQ(out.events[0].action, "cancelled: give up");
  EXPECT_FALSE(out.degraded);
}

// ---- the runner's recovery plumbing, end to end -----------------------

TEST(RunnerDegradation, BitflipIsCaughtStrippedAndRecovered) {
  testsuite::RunnerOptions o = small_opts();
  o.faults = "bitflip@tree:block=0,bit=62";
  testsuite::Runner runner(o);
  const testsuite::CaseOutcome out =
      runner.run(acc::CompilerId::kOpenUH, kGangSumInt);
  EXPECT_TRUE(out.verified) << out.detail;
  EXPECT_TRUE(out.recovered);
  EXPECT_EQ(out.attempts, 2);
  EXPECT_FALSE(out.degraded);
  EXPECT_TRUE(out.stats.faults_armed);
  ASSERT_FALSE(out.stats.fault_events.empty());
  EXPECT_EQ(out.stats.fault_events[0].kind, FaultKind::kBitFlip);
  ASSERT_FALSE(out.events.empty());
  EXPECT_NE(out.events[0].find("strip non-sticky faults"), std::string::npos)
      << out.events[0];
}

TEST(RunnerDegradation, StickyBitflipWithoutDegradeFailsStructurally) {
  testsuite::RunnerOptions o = small_opts();
  o.faults = "bitflip@tree:block=0,bit=62,sticky";
  o.guard.max_retries = 1;
  o.guard.degrade = false;
  testsuite::Runner runner(o);
  const testsuite::CaseOutcome out =
      runner.run(acc::CompilerId::kOpenUH, kGangSumInt);
  EXPECT_FALSE(out.verified);
  EXPECT_EQ(out.attempts, 2);  // sticky: the retry failed identically
  EXPECT_EQ(out.stats.error.code, LaunchErrorCode::kNumericGuard);
  EXPECT_FALSE(out.detail.empty());
  // Both attempts' flips are in the record.
  EXPECT_EQ(out.stats.fault_events.size(), 2u);
}

TEST(RunnerDegradation, InjectedAllocFailureIsRetriedAndRecorded) {
  testsuite::RunnerOptions o = small_opts();
  o.faults = "alloc_fail@input";
  testsuite::Runner runner(o);
  const testsuite::CaseOutcome out =
      runner.run(acc::CompilerId::kOpenUH, kGangSumInt);
  EXPECT_TRUE(out.verified) << out.detail;
  EXPECT_TRUE(out.recovered);
  EXPECT_EQ(out.attempts, 2);
  EXPECT_TRUE(out.stats.faults_armed);
  ASSERT_FALSE(out.stats.fault_events.empty());
  EXPECT_EQ(out.stats.fault_events[0].kind, FaultKind::kAllocFail);
  EXPECT_EQ(out.stats.fault_events[0].stage, "input");
  ASSERT_FALSE(out.events.empty());
  EXPECT_NE(out.events[0].find("strip non-sticky faults and retry"),
            std::string::npos)
      << out.events[0];
}

TEST(RunnerDegradation, StickyInputAllocFailureWalksTheLadder) {
  // The runner's own allocations get no retry of their own: a sticky
  // alloc_fail on the input fails every attempt the ladder makes.
  testsuite::RunnerOptions o = small_opts();
  o.faults = "alloc_fail@input:sticky";
  o.guard.degrade = false;
  testsuite::Runner runner(o);
  const testsuite::CaseOutcome out =
      runner.run(acc::CompilerId::kOpenUH, kGangSumInt);
  EXPECT_FALSE(out.verified);
  EXPECT_EQ(out.attempts, 2);  // the original try + 1 retry
  EXPECT_EQ(out.stats.error.code, LaunchErrorCode::kOom);
}

TEST(RunnerDegradation, AllocFailureFiresOnce) {
  // An unlabeled alloc_fail matches the cell's first allocation; once
  // stripped, no later allocation of the cell or its strategy sees it.
  testsuite::RunnerOptions o = small_opts();
  o.faults = "alloc_fail";
  testsuite::Runner runner(o);
  const testsuite::CaseOutcome out =
      runner.run(acc::CompilerId::kOpenUH, kGangSumInt);
  EXPECT_TRUE(out.verified) << out.detail;
  EXPECT_EQ(out.attempts, 2);
  ASSERT_EQ(out.stats.fault_events.size(), 1u);
  EXPECT_EQ(out.stats.fault_events[0].kind, FaultKind::kAllocFail);
}

TEST(RunnerDegradation, AllStickySpecStripsNothingInAnyKeyOrder) {
  // The parsed plan decides the strip, not the spec text: an all-sticky
  // spec strips nothing whatever its key order, so both spellings make
  // the same attempts.
  const auto run = [](const char* spec) {
    testsuite::RunnerOptions o = small_opts();
    o.faults = spec;
    o.guard.max_retries = 0;
    return testsuite::Runner(o).run(acc::CompilerId::kOpenUH, kGangSumInt);
  };
  const testsuite::CaseOutcome canonical =
      run("bitflip@tree:block=0,seed=2,bit=62,sticky");
  const testsuite::CaseOutcome reordered =
      run("bitflip@tree:block=0,bit=62,seed=2,sticky");
  EXPECT_GT(canonical.attempts, 1);
  EXPECT_EQ(reordered.attempts, canonical.attempts);
  EXPECT_EQ(reordered.events.size(), canonical.events.size());
  for (const std::string& ev : reordered.events) {
    EXPECT_EQ(ev.find("strip non-sticky faults"), std::string::npos) << ev;
  }
}

TEST(RunnerDegradation, RunnerEventsRenderRungAndOrdinal) {
  testsuite::RunnerOptions o = small_opts();
  o.faults = "bitflip@tree:block=0,bit=62,sticky";
  o.guard.max_retries = 1;
  o.guard.degrade = false;
  testsuite::Runner runner(o);
  const testsuite::CaseOutcome out =
      runner.run(acc::CompilerId::kOpenUH, kGangSumInt);
  EXPECT_FALSE(out.verified);
  ASSERT_FALSE(out.events.empty());
  // The rendered trail carries the attempt, rung, and per-rung ordinal.
  EXPECT_NE(out.events[0].find("(rung 0, failure 1)"), std::string::npos)
      << out.events[0];
}

TEST(RunnerDegradation, AttemptBudgetAppliesThroughTheRunner) {
  testsuite::RunnerOptions o = small_opts();
  o.faults = "bitflip@tree:block=0,bit=62,sticky";
  o.guard.max_retries = 3;
  o.guard.max_total_attempts = 2;
  testsuite::Runner runner(o);
  const testsuite::CaseOutcome out =
      runner.run(acc::CompilerId::kOpenUH, kGangSumInt);
  EXPECT_FALSE(out.verified);
  EXPECT_EQ(out.attempts, 2);
  ASSERT_FALSE(out.events.empty());
  EXPECT_NE(out.events.back().find("attempt budget exhausted"),
            std::string::npos)
      << out.events.back();
}

TEST(RunnerDegradation, ClientCancellationSurfacesStructured) {
  testsuite::RunnerOptions o = small_opts();
  o.cancel = std::make_shared<gpusim::CancelToken>();
  o.cancel->cancel_at_launch(1);
  testsuite::Runner runner(o);
  const testsuite::CaseOutcome out =
      runner.run(acc::CompilerId::kOpenUH, kGangSumInt);
  EXPECT_FALSE(out.verified);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(out.stats.error.code, LaunchErrorCode::kCancelled);
  EXPECT_NE(out.detail.find("cancel"), std::string::npos) << out.detail;
  ASSERT_FALSE(out.events.empty());
  EXPECT_NE(out.events.back().find("cancelled: give up"), std::string::npos)
      << out.events.back();
}

TEST(RunnerDegradation, WatchdogBudgetAppliesThroughTheRunner) {
  // A max_steps budget far below what the kernels need: every launch
  // trips the watchdog, retries fail identically (no faults to strip),
  // and the cell fails with a structured kWatchdog error.
  testsuite::RunnerOptions o = small_opts();
  o.max_steps = 1;
  o.guard.max_retries = 0;
  o.guard.degrade = false;
  testsuite::Runner runner(o);
  const testsuite::CaseOutcome out =
      runner.run(acc::CompilerId::kOpenUH, kGangSumInt);
  EXPECT_FALSE(out.verified);
  EXPECT_EQ(out.stats.error.code, LaunchErrorCode::kWatchdog);
  EXPECT_NE(out.detail.find("watchdog"), std::string::npos) << out.detail;
}

// ---- extended-kind cells on the same ladder ----------------------------

TEST(RunnerDegradation, StickyBitflipWalksTheLadderOnASegmentedCell) {
  testsuite::RunnerOptions o = small_opts();
  o.faults = "bitflip@tree:block=0,bit=62,sticky";
  testsuite::Runner runner(o);
  const testsuite::CaseOutcome out = runner.run_ext(
      acc::CompilerId::kOpenUH,
      {testsuite::ExtKind::kSegmented, acc::DataType::kFloat});
  ASSERT_FALSE(out.events.empty());
  bool degraded = false;
  for (const std::string& ev : out.events) {
    degraded = degraded || ev.find("degrade:") != std::string::npos;
  }
  EXPECT_TRUE(degraded) << out.events.back();
  EXPECT_GT(out.attempts, 2);  // past the same-rung retry
  EXPECT_TRUE(out.stats.faults_armed);
  EXPECT_FALSE(out.stats.fault_events.empty());
}

// At this geometry a flip of block 0's first tree store is masked (the
// result hashes the same); a flip of its second one changes the pair.
constexpr const char* kArgminFlip = "bitflip@tree:block=0,bit=62,nth=1";

TEST(RunnerDegradation, NonStickyBitflipOnArgminRecoversOnAttemptTwo) {
  testsuite::RunnerOptions o = small_opts();
  o.faults = kArgminFlip;
  testsuite::Runner runner(o);
  const testsuite::CaseOutcome out = runner.run_ext(
      acc::CompilerId::kOpenUH,
      {testsuite::ExtKind::kArgMin, acc::DataType::kDouble});
  EXPECT_TRUE(out.verified) << out.detail;
  EXPECT_TRUE(out.recovered);
  EXPECT_FALSE(out.degraded);
  EXPECT_EQ(out.attempts, 2);
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_NE(out.events[0].find("strip non-sticky faults"), std::string::npos)
      << out.events[0];
  ASSERT_FALSE(out.stats.fault_events.empty());
  EXPECT_EQ(out.stats.fault_events[0].kind, FaultKind::kBitFlip);
}

TEST(RunnerDegradation, CancelledExtCellStopsAfterOneAttempt) {
  testsuite::RunnerOptions o = small_opts();
  o.cancel = std::make_shared<gpusim::CancelToken>();
  o.cancel->cancel_at_launch(1);
  testsuite::Runner runner(o);
  const testsuite::CaseOutcome out = runner.run_ext(
      acc::CompilerId::kOpenUH,
      {testsuite::ExtKind::kSegmented, acc::DataType::kInt32});
  EXPECT_FALSE(out.verified);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(out.stats.error.code, LaunchErrorCode::kCancelled);
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_NE(out.events[0].find("cancelled: give up"), std::string::npos)
      << out.events[0];
}

TEST(RunnerDegradation, AttemptBudgetOfOneStopsAnExtCell) {
  testsuite::RunnerOptions o = small_opts();
  o.faults = kArgminFlip;
  o.guard.max_total_attempts = 1;
  testsuite::Runner runner(o);
  const testsuite::CaseOutcome out = runner.run_ext(
      acc::CompilerId::kOpenUH,
      {testsuite::ExtKind::kArgMin, acc::DataType::kDouble});
  EXPECT_FALSE(out.verified);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(out.stats.error.code, LaunchErrorCode::kNumericGuard);
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_NE(out.events[0].find("attempt budget exhausted"), std::string::npos)
      << out.events[0];
}

}  // namespace
}  // namespace accred
