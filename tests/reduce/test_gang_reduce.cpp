// Correctness and cost-shape tests for the gang-reduction strategy
// (§3.1.3: Fig. 5c — per-block partials + second kernel; window-sliding
// vs blocking iteration assignment).
#include "reduce/gang_reduce.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"

namespace accred::reduce {
namespace {

using test::OpTypeCase;

template <typename T>
gpusim::LaunchStats run_case(acc::ReductionOp op, Nest3 n,
                             const acc::LaunchConfig& cfg,
                             const StrategyConfig& sc,
                             bool with_host_init = false) {
  gpusim::Device dev;
  const auto count = static_cast<std::size_t>(n.nk);
  auto host_in = test::make_input<T>(op, count);
  auto input = dev.alloc<T>(count);
  input.copy_from_host(host_in);
  auto in_view = input.view();

  Bindings<T> b;
  b.contrib = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k, std::int64_t,
                           std::int64_t) {
    return ctx.ld(in_view, static_cast<std::size_t>(k));
  });
  if (with_host_init) {
    b.host_init = static_cast<T>(3);
    b.host_init_set = true;
  }

  auto res = run_gang_reduction<T>(dev, n, cfg, op, b, sc);
  EXPECT_TRUE(res.scalar.has_value());
  EXPECT_EQ(res.kernels, 2);  // partials kernel + finalize kernel

  acc::RuntimeOp<T> rop{op};
  T expect = test::cpu_fold<T>(op, std::span<const T>(host_in));
  if (with_host_init) expect = rop.apply(static_cast<T>(3), expect);
  EXPECT_TRUE(testsuite::reduction_result_matches(
      expect, *res.scalar, static_cast<std::uint64_t>(n.nk)))
      << "expect=" << expect << " actual=" << *res.scalar;
  return res.stats;
}

acc::LaunchConfig small_cfg() {
  acc::LaunchConfig cfg;
  cfg.num_gangs = 6;
  cfg.num_workers = 2;
  cfg.vector_length = 32;
  return cfg;
}

class GangReduceSweep : public ::testing::TestWithParam<OpTypeCase> {};

TEST_P(GangReduceSweep, WindowSlidingMatchesCpu) {
  const auto [op, type] = GetParam();
  dispatch_type(type, [&](auto tag) {
    using T = typename decltype(tag)::type;
    run_case<T>(op, Nest3{1000, 2, 8}, small_cfg(), StrategyConfig{});
  });
}

TEST_P(GangReduceSweep, BlockingMatchesCpu) {
  const auto [op, type] = GetParam();
  StrategyConfig sc;
  sc.assignment = Assignment::kBlocking;
  dispatch_type(type, [&](auto tag) {
    using T = typename decltype(tag)::type;
    run_case<T>(op, Nest3{1000, 2, 8}, small_cfg(), sc);
  });
}

INSTANTIATE_TEST_SUITE_P(AllOpsTypes, GangReduceSweep,
                         ::testing::ValuesIn(test::all_op_type_cases()),
                         test::op_type_name);

TEST(GangReduce, HostInitFoldedIn) {
  run_case<std::int32_t>(acc::ReductionOp::kSum, Nest3{500, 2, 8},
                         small_cfg(), StrategyConfig{}, true);
  run_case<std::int64_t>(acc::ReductionOp::kProd, Nest3{500, 2, 8},
                         small_cfg(), StrategyConfig{}, true);
}

TEST(GangReduce, GlobalFinalizeMatchesCpu) {
  StrategyConfig sc;
  sc.staging = Staging::kGlobal;
  run_case<double>(acc::ReductionOp::kSum, Nest3{777, 2, 8}, small_cfg(), sc);
}

TEST(GangReduce, EdgeExtents) {
  // Fewer iterations than gangs, exactly the gang count, one element.
  for (std::int64_t nk : {1, 2, 5, 6, 7, 192}) {
    run_case<std::int32_t>(acc::ReductionOp::kSum, Nest3{nk, 2, 8},
                           small_cfg(), StrategyConfig{});
  }
}

TEST(GangReduce, FinalizeWidthVariants) {
  // The finalize kernel must work at any thread count, including widths
  // that are not powers of two (its tree pre-folds) and widths larger
  // than the partials count.
  for (std::uint32_t ft : {32u, 100u, 256u, 512u, 1000u}) {
    StrategyConfig sc;
    sc.finalize_threads = ft;
    run_case<std::int64_t>(acc::ReductionOp::kSum, Nest3{321, 2, 8},
                           small_cfg(), sc);
  }
}

TEST(GangReduce, PaysTwoLaunchOverheads) {
  gpusim::Device dev;
  auto input = dev.alloc<int>(100);
  input.fill(1);
  auto in_view = input.view();
  Bindings<int> b;
  b.contrib = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k, std::int64_t,
                           std::int64_t) {
    return ctx.ld(in_view, k);
  });
  auto res = run_gang_reduction<int>(dev, Nest3{100, 1, 1}, small_cfg(),
                                     acc::ReductionOp::kSum, b);
  EXPECT_EQ(res.kernels, 2);
  EXPECT_GE(res.stats.device_time_ns,
            2 * dev.costs().launch_overhead_ns);
}

}  // namespace
}  // namespace accred::reduce
