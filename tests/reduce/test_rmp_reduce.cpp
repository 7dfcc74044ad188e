// Correctness and cost-shape tests for the multi-level (RMP) strategies
// (§3.2): worker&vector (flat and the ordered §3.2.1 alternative),
// gang&worker, gang&worker&vector in different loops, and the same-loop
// form of Fig. 10.
#include "reduce/rmp_reduce.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"

namespace accred::reduce {
namespace {

using test::OpTypeCase;

acc::LaunchConfig small_cfg() {
  acc::LaunchConfig cfg;
  cfg.num_gangs = 4;
  cfg.num_workers = 4;
  cfg.vector_length = 32;
  return cfg;
}

// ---- worker & vector (per-k results) ----------------------------------

template <typename T>
gpusim::LaunchStats run_wv(acc::ReductionOp op, Nest3 n,
                           const StrategyConfig& sc, bool ordered = false) {
  gpusim::Device dev;
  const auto count = static_cast<std::size_t>(n.nk * n.nj * n.ni);
  auto host_in = test::make_input<T>(op, count);
  auto input = dev.alloc<T>(count);
  input.copy_from_host(host_in);
  auto out = dev.alloc<T>(static_cast<std::size_t>(n.nk));
  auto in_view = input.view();
  auto out_view = out.view();

  Bindings<T> b;
  b.contrib = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                           std::int64_t j, std::int64_t i) {
    return ctx.ld(in_view, static_cast<std::size_t>((k * n.nj + j) * n.ni + i));
  });
  b.sink = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k, std::int64_t,
                        T r) {
    ctx.st(out_view, static_cast<std::size_t>(k), r);
  });

  auto res = ordered
                 ? run_worker_vector_reduction_ordered<T>(dev, n, small_cfg(),
                                                          op, b, sc)
                 : run_worker_vector_reduction<T>(dev, n, small_cfg(), op, b,
                                                  sc);
  for (std::int64_t k = 0; k < n.nk; ++k) {
    std::span<const T> slab(host_in.data() + k * n.nj * n.ni,
                            static_cast<std::size_t>(n.nj * n.ni));
    const T expect = test::cpu_fold<T>(op, slab);
    const T actual = out.host_span()[static_cast<std::size_t>(k)];
    EXPECT_TRUE(testsuite::reduction_result_matches(
        expect, actual, static_cast<std::uint64_t>(n.nj * n.ni)))
        << "k=" << k << " expect=" << expect << " actual=" << actual;
  }
  return res.stats;
}

class WorkerVectorSweep : public ::testing::TestWithParam<OpTypeCase> {};

TEST_P(WorkerVectorSweep, FlatMatchesCpu) {
  const auto [op, type] = GetParam();
  dispatch_type(type, [&](auto tag) {
    using T = typename decltype(tag)::type;
    run_wv<T>(op, Nest3{3, 7, 131}, StrategyConfig{});
  });
}

TEST_P(WorkerVectorSweep, OrderedMatchesCpu) {
  const auto [op, type] = GetParam();
  dispatch_type(type, [&](auto tag) {
    using T = typename decltype(tag)::type;
    run_wv<T>(op, Nest3{3, 7, 131}, StrategyConfig{}, /*ordered=*/true);
  });
}

INSTANTIATE_TEST_SUITE_P(AllOpsTypes, WorkerVectorSweep,
                         ::testing::ValuesIn(test::all_op_type_cases()),
                         test::op_type_name);

TEST(WorkerVector, GlobalStagingMatchesCpu) {
  StrategyConfig sc;
  sc.staging = Staging::kGlobal;
  run_wv<std::int64_t>(acc::ReductionOp::kSum, Nest3{3, 7, 131}, sc);
}

TEST(WorkerVector, OrderedNeedsMoreSynchronization) {
  // §3.2.1: "OpenUH does not use this implementation since this approach
  // needs to perform reduction in multiple times and therefore more
  // synchronizations are required."
  const auto flat = run_wv<int>(acc::ReductionOp::kSum, Nest3{2, 16, 256},
                                StrategyConfig{});
  const auto ordered = run_wv<int>(acc::ReductionOp::kSum, Nest3{2, 16, 256},
                                   StrategyConfig{}, /*ordered=*/true);
  EXPECT_GT(ordered.barriers, flat.barriers);
  EXPECT_GT(ordered.device_time_ns, flat.device_time_ns);
}

// ---- gang & worker and gang & worker & vector (scalar) -----------------

template <typename T>
gpusim::LaunchStats run_scalar_span(acc::ReductionOp op, Nest3 n,
                                    acc::ParMask span,
                                    const StrategyConfig& sc) {
  gpusim::Device dev;
  const bool has_vector = acc::has(span, acc::Par::kVector);
  const auto count = static_cast<std::size_t>(
      n.nk * n.nj * (has_vector ? n.ni : 1));
  auto host_in = test::make_input<T>(op, count);
  auto input = dev.alloc<T>(count);
  input.copy_from_host(host_in);
  auto in_view = input.view();

  Bindings<T> b;
  if (has_vector) {
    b.contrib = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                             std::int64_t j, std::int64_t i) {
      return ctx.ld(in_view,
                    static_cast<std::size_t>((k * n.nj + j) * n.ni + i));
    });
  } else {
    b.contrib = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                             std::int64_t j, std::int64_t) {
      return ctx.ld(in_view, static_cast<std::size_t>(k * n.nj + j));
    });
  }

  auto res = has_vector
                 ? run_gang_worker_vector_reduction<T>(dev, n, small_cfg(),
                                                       op, b, sc)
                 : run_gang_worker_reduction<T>(dev, n, small_cfg(), op, b,
                                                sc);
  EXPECT_TRUE(res.scalar.has_value()) << "scalar result missing";
  if (!res.scalar.has_value()) return res.stats;
  EXPECT_EQ(res.kernels, 2);
  const T expect = test::cpu_fold<T>(op, std::span<const T>(host_in));
  EXPECT_TRUE(testsuite::reduction_result_matches(
      expect, *res.scalar, static_cast<std::uint64_t>(count)))
      << "expect=" << expect << " actual=" << *res.scalar;
  return res.stats;
}

class GangWorkerSweep : public ::testing::TestWithParam<OpTypeCase> {};

TEST_P(GangWorkerSweep, GangWorkerMatchesCpu) {
  const auto [op, type] = GetParam();
  dispatch_type(type, [&](auto tag) {
    using T = typename decltype(tag)::type;
    run_scalar_span<T>(op, Nest3{67, 31, 8}, acc::Par::kGang | acc::Par::kWorker,
                       StrategyConfig{});
  });
}

TEST_P(GangWorkerSweep, GangWorkerVectorMatchesCpu) {
  const auto [op, type] = GetParam();
  dispatch_type(type, [&](auto tag) {
    using T = typename decltype(tag)::type;
    run_scalar_span<T>(
        op, Nest3{11, 13, 70},
        acc::Par::kGang | acc::Par::kWorker | acc::Par::kVector,
        StrategyConfig{});
  });
}

INSTANTIATE_TEST_SUITE_P(AllOpsTypes, GangWorkerSweep,
                         ::testing::ValuesIn(test::all_op_type_cases()),
                         test::op_type_name);

// ---- RMP in the same loop (Fig. 10) ------------------------------------

template <typename T>
gpusim::LaunchStats run_same_loop(acc::ReductionOp op, std::int64_t extent,
                                  const StrategyConfig& sc) {
  gpusim::Device dev;
  auto host_in = test::make_input<T>(op, static_cast<std::size_t>(extent));
  auto input = dev.alloc<T>(static_cast<std::size_t>(extent));
  input.copy_from_host(host_in);
  auto in_view = input.view();

  Bindings<T> b;
  b.contrib = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t idx,
                           std::int64_t, std::int64_t) {
    return ctx.ld(in_view, static_cast<std::size_t>(idx));
  });
  auto res = run_same_loop_reduction<T>(dev, extent, small_cfg(), op, b, sc);
  EXPECT_TRUE(res.scalar.has_value()) << "scalar result missing";
  if (!res.scalar.has_value()) return res.stats;
  const T expect = test::cpu_fold<T>(op, std::span<const T>(host_in));
  EXPECT_TRUE(testsuite::reduction_result_matches(
      expect, *res.scalar, static_cast<std::uint64_t>(extent)))
      << "expect=" << expect << " actual=" << *res.scalar;
  return res.stats;
}

class SameLoopSweep : public ::testing::TestWithParam<OpTypeCase> {};

TEST_P(SameLoopSweep, MatchesCpu) {
  const auto [op, type] = GetParam();
  dispatch_type(type, [&](auto tag) {
    using T = typename decltype(tag)::type;
    run_same_loop<T>(op, 10'007, StrategyConfig{});
  });
}

INSTANTIATE_TEST_SUITE_P(AllOpsTypes, SameLoopSweep,
                         ::testing::ValuesIn(test::all_op_type_cases()),
                         test::op_type_name);

TEST(SameLoop, ExtentSmallerThanThreadCount) {
  run_same_loop<std::int32_t>(acc::ReductionOp::kSum, 5, StrategyConfig{});
  run_same_loop<std::int32_t>(acc::ReductionOp::kMax, 1, StrategyConfig{});
}

TEST(SameLoop, WindowCoalescesBlockingDoesNot) {
  StrategyConfig window;
  StrategyConfig blocking;
  blocking.assignment = Assignment::kBlocking;
  const auto win = run_same_loop<float>(acc::ReductionOp::kSum, 1 << 16,
                                        window);
  const auto blk = run_same_loop<float>(acc::ReductionOp::kSum, 1 << 16,
                                        blocking);
  EXPECT_LT(win.gmem_segments, blk.gmem_segments / 4);
  EXPECT_LT(win.device_time_ns, blk.device_time_ns);
}

TEST(WorkerVector, HostInitFoldThroughSink) {
  // instance_init on the per-k sink path.
  gpusim::Device dev;
  const Nest3 n{3, 4, 8};
  auto input = dev.alloc<int>(static_cast<std::size_t>(n.nk * n.nj * n.ni));
  input.fill(1);
  auto out = dev.alloc<int>(static_cast<std::size_t>(n.nk));
  auto in_view = input.view();
  auto out_view = out.view();
  Bindings<int> b;
  b.contrib = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                           std::int64_t j, std::int64_t i) {
    return ctx.ld(in_view, static_cast<std::size_t>((k * n.nj + j) * n.ni + i));
  });
  b.instance_init = [](std::int64_t k, std::int64_t) {
    return static_cast<int>(100 * k);
  };
  b.sink = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k, std::int64_t,
                        int r) {
    ctx.st(out_view, static_cast<std::size_t>(k), r);
  });
  (void)run_worker_vector_reduction<int>(dev, n, small_cfg(),
                                         acc::ReductionOp::kSum, b);
  for (std::int64_t k = 0; k < n.nk; ++k) {
    EXPECT_EQ(out.host_span()[static_cast<std::size_t>(k)],
              100 * k + n.nj * n.ni);
  }
}

}  // namespace
}  // namespace accred::reduce
