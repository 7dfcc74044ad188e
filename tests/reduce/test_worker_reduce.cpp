// Correctness and cost-shape tests for the worker-reduction strategies
// (§3.1.2: Fig. 5b, Fig. 8b vs 8c, global fallback).
#include "reduce/worker_reduce.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"

namespace accred::reduce {
namespace {

using test::OpTypeCase;

struct WorkerCaseResult {
  gpusim::LaunchStats stats;
};

/// Worker reduction over an NK x NJ input (plus an NI-wide parallel lane
/// dimension); verifies every k instance against the CPU fold.
template <typename T>
WorkerCaseResult run_case(acc::ReductionOp op, Nest3 n,
                          const acc::LaunchConfig& cfg,
                          const StrategyConfig& sc,
                          bool with_instance_init = false) {
  gpusim::Device dev;
  const auto count = static_cast<std::size_t>(n.nk * n.nj);
  auto host_in = test::make_input<T>(op, count);
  auto input = dev.alloc<T>(count);
  input.copy_from_host(host_in);
  auto out = dev.alloc<T>(static_cast<std::size_t>(n.nk));
  auto in_view = input.view();
  auto out_view = out.view();

  Bindings<T> b;
  b.contrib = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                           std::int64_t j, std::int64_t) {
    return ctx.ld(in_view, static_cast<std::size_t>(k * n.nj + j));
  });
  b.sink = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k, std::int64_t,
                        T r) {
    ctx.st(out_view, static_cast<std::size_t>(k), r);
  });
  if (with_instance_init) {
    b.instance_init = [](std::int64_t k, std::int64_t) {
      return static_cast<T>(k);
    };
  }

  auto res = run_worker_reduction<T>(dev, n, cfg, op, b, sc);
  EXPECT_FALSE(res.scalar.has_value());

  acc::RuntimeOp<T> rop{op};
  for (std::int64_t k = 0; k < n.nk; ++k) {
    std::span<const T> row(host_in.data() + k * n.nj,
                           static_cast<std::size_t>(n.nj));
    T expect = test::cpu_fold<T>(op, row);
    if (with_instance_init) expect = rop.apply(static_cast<T>(k), expect);
    const T actual = out.host_span()[static_cast<std::size_t>(k)];
    EXPECT_TRUE(testsuite::reduction_result_matches(
        expect, actual, static_cast<std::uint64_t>(n.nj)))
        << "k=" << k << " expect=" << expect << " actual=" << actual;
  }
  return {res.stats};
}

acc::LaunchConfig small_cfg() {
  acc::LaunchConfig cfg;
  cfg.num_gangs = 4;
  cfg.num_workers = 4;
  cfg.vector_length = 32;
  return cfg;
}

class WorkerReduceSweep : public ::testing::TestWithParam<OpTypeCase> {};

TEST_P(WorkerReduceSweep, FirstRowLayoutMatchesCpu) {
  const auto [op, type] = GetParam();
  dispatch_type(type, [&](auto tag) {
    using T = typename decltype(tag)::type;
    run_case<T>(op, Nest3{3, 233, 16}, small_cfg(), StrategyConfig{});
  });
}

TEST_P(WorkerReduceSweep, DuplicatedRowsLayoutMatchesCpu) {
  const auto [op, type] = GetParam();
  StrategyConfig sc;
  sc.worker_layout = WorkerLayout::kDuplicatedRows;
  dispatch_type(type, [&](auto tag) {
    using T = typename decltype(tag)::type;
    run_case<T>(op, Nest3{3, 233, 16}, small_cfg(), sc);
  });
}

INSTANTIATE_TEST_SUITE_P(AllOpsTypes, WorkerReduceSweep,
                         ::testing::ValuesIn(test::all_op_type_cases()),
                         test::op_type_name);

TEST(WorkerReduce, GlobalStagingMatchesCpu) {
  StrategyConfig sc;
  sc.staging = Staging::kGlobal;
  run_case<std::int64_t>(acc::ReductionOp::kSum, Nest3{3, 233, 16},
                         small_cfg(), sc);
  run_case<float>(acc::ReductionOp::kMin, Nest3{5, 77, 8}, small_cfg(), sc);
}

TEST(WorkerReduce, InstanceInitFoldedIn) {
  run_case<std::int32_t>(acc::ReductionOp::kSum, Nest3{4, 50, 4}, small_cfg(),
                         StrategyConfig{}, /*with_instance_init=*/true);
}

TEST(WorkerReduce, EdgeExtents) {
  for (std::int64_t nj : {1, 2, 3, 4, 5, 63, 64, 65}) {
    run_case<std::int32_t>(acc::ReductionOp::kSum, Nest3{2, nj, 8},
                           small_cfg(), StrategyConfig{});
  }
}

TEST(WorkerReduce, NonPowerOfTwoWorkerCount) {
  acc::LaunchConfig cfg = small_cfg();
  cfg.num_workers = 6;  // exercises the tree's pre-fold on W=6 partials
  run_case<std::int32_t>(acc::ReductionOp::kSum, Nest3{3, 100, 8}, cfg,
                         StrategyConfig{});
  cfg.num_workers = 7;
  run_case<std::int64_t>(acc::ReductionOp::kMax, Nest3{3, 100, 8}, cfg,
                         StrategyConfig{});
}

TEST(WorkerReduce, DuplicatedRowsCostMoreSharedTrafficAndBarriers) {
  // The paper's stated drawbacks of Fig. 8b: "it consumes a lot of shared
  // memory ... and it needs to insert synchronization between each
  // iteration".
  StrategyConfig first;
  StrategyConfig dup;
  dup.worker_layout = WorkerLayout::kDuplicatedRows;
  acc::LaunchConfig cfg;
  cfg.num_gangs = 2;
  cfg.num_workers = 8;
  cfg.vector_length = 128;
  const auto a = run_case<float>(acc::ReductionOp::kSum, Nest3{2, 512, 32},
                                 cfg, first);
  const auto b = run_case<float>(acc::ReductionOp::kSum, Nest3{2, 512, 32},
                                 cfg, dup);
  EXPECT_GT(b.stats.smem_requests, 4 * a.stats.smem_requests);
  EXPECT_GE(b.stats.barriers, a.stats.barriers);
  EXPECT_GT(b.stats.device_time_ns, a.stats.device_time_ns);
}

TEST(WorkerReduce, FirstRowTreeUsesWarpSync) {
  // Fig. 8c's advantage: the W partials sit in one warp, so the tail needs
  // no block-wide barriers.
  const auto a = run_case<int>(acc::ReductionOp::kSum, Nest3{2, 64, 8},
                               small_cfg(), StrategyConfig{});
  EXPECT_GT(a.stats.syncwarps, 0u);
}

}  // namespace
}  // namespace accred::reduce
