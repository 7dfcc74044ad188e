// Correctness and cost-shape tests for the vector-reduction strategies
// (§3.1.1: Fig. 5a, Fig. 6b vs 6c, global fallback, non-power-of-2 sizes).
#include "reduce/vector_reduce.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"

namespace accred::reduce {
namespace {

using test::OpTypeCase;

struct VectorCaseResult {
  bool ok = true;
  gpusim::LaunchStats stats;
};

/// Run a vector reduction over an NK x NJ x NI input and verify every
/// (k, j) instance against the CPU fold.
template <typename T>
VectorCaseResult run_case(acc::ReductionOp op, Nest3 n,
                          const acc::LaunchConfig& cfg,
                          const StrategyConfig& sc,
                          bool with_instance_init = false) {
  gpusim::Device dev;
  const auto count = static_cast<std::size_t>(n.nk * n.nj * n.ni);
  auto host_in = test::make_input<T>(op, count);
  auto input = dev.alloc<T>(count);
  input.copy_from_host(host_in);
  auto out = dev.alloc<T>(static_cast<std::size_t>(n.nk * n.nj));
  auto in_view = input.view();
  auto out_view = out.view();

  Bindings<T> b;
  b.contrib = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                           std::int64_t j, std::int64_t i) {
    return ctx.ld(in_view, static_cast<std::size_t>((k * n.nj + j) * n.ni + i));
  });
  b.sink = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k, std::int64_t j,
                        T r) {
    ctx.st(out_view, static_cast<std::size_t>(k * n.nj + j), r);
  });
  if (with_instance_init) {
    b.instance_init = [](std::int64_t k, std::int64_t j) {
      return static_cast<T>(k + j);
    };
  }

  auto res = run_vector_reduction<T>(dev, n, cfg, op, b, sc);
  EXPECT_FALSE(res.scalar.has_value());
  EXPECT_EQ(res.kernels, 1);

  VectorCaseResult out_res;
  out_res.stats = res.stats;
  acc::RuntimeOp<T> rop{op};
  for (std::int64_t k = 0; k < n.nk; ++k) {
    for (std::int64_t j = 0; j < n.nj; ++j) {
      std::span<const T> row(host_in.data() + (k * n.nj + j) * n.ni,
                             static_cast<std::size_t>(n.ni));
      T expect = test::cpu_fold<T>(op, row);
      if (with_instance_init) {
        expect = rop.apply(static_cast<T>(k + j), expect);
      }
      const T actual =
          out.host_span()[static_cast<std::size_t>(k * n.nj + j)];
      const bool match = testsuite::reduction_result_matches(
          expect, actual, static_cast<std::uint64_t>(n.ni));
      EXPECT_TRUE(match) << "k=" << k << " j=" << j << " expect=" << expect
                         << " actual=" << actual;
      out_res.ok = out_res.ok && match;
    }
  }
  return out_res;
}

acc::LaunchConfig small_cfg() {
  acc::LaunchConfig cfg;
  cfg.num_gangs = 4;
  cfg.num_workers = 4;
  cfg.vector_length = 32;
  return cfg;
}

class VectorReduceSweep : public ::testing::TestWithParam<OpTypeCase> {};

TEST_P(VectorReduceSweep, OpenUHLayoutMatchesCpu) {
  const auto [op, type] = GetParam();
  dispatch_type(type, [&](auto tag) {
    using T = typename decltype(tag)::type;
    run_case<T>(op, Nest3{3, 5, 517}, small_cfg(), StrategyConfig{});
  });
}

TEST_P(VectorReduceSweep, TransposedLayoutMatchesCpu) {
  const auto [op, type] = GetParam();
  StrategyConfig sc;
  sc.vector_layout = VectorLayout::kTransposed;
  dispatch_type(type, [&](auto tag) {
    using T = typename decltype(tag)::type;
    run_case<T>(op, Nest3{3, 5, 517}, small_cfg(), sc);
  });
}

INSTANTIATE_TEST_SUITE_P(AllOpsTypes, VectorReduceSweep,
                         ::testing::ValuesIn(test::all_op_type_cases()),
                         test::op_type_name);

TEST(VectorReduce, GlobalStagingMatchesCpu) {
  StrategyConfig sc;
  sc.staging = Staging::kGlobal;
  run_case<std::int64_t>(acc::ReductionOp::kSum, Nest3{3, 5, 517},
                         small_cfg(), sc);
  run_case<double>(acc::ReductionOp::kMax, Nest3{2, 3, 100}, small_cfg(), sc);
}

TEST(VectorReduce, BlockingAssignmentMatchesCpu) {
  StrategyConfig sc;
  sc.assignment = Assignment::kBlocking;
  run_case<std::int32_t>(acc::ReductionOp::kSum, Nest3{3, 5, 517},
                         small_cfg(), sc);
}

TEST(VectorReduce, InstanceInitFoldedIn) {
  run_case<std::int32_t>(acc::ReductionOp::kSum, Nest3{2, 3, 64}, small_cfg(),
                         StrategyConfig{}, /*with_instance_init=*/true);
  run_case<std::int32_t>(acc::ReductionOp::kMax, Nest3{2, 3, 64}, small_cfg(),
                         StrategyConfig{}, /*with_instance_init=*/true);
}

TEST(VectorReduce, EdgeExtents) {
  // Extents below, equal to, and straddling the vector length; single
  // element; extents that are not powers of two.
  for (std::int64_t ni : {1, 2, 31, 32, 33, 96, 127, 128, 129}) {
    run_case<std::int32_t>(acc::ReductionOp::kSum, Nest3{2, 2, ni},
                           small_cfg(), StrategyConfig{});
  }
}

TEST(VectorReduce, NonWarpMultipleVectorLength) {
  // §3.3: vector sizes that are not a multiple of 32 stay correct (the
  // warp tail is disabled automatically); performance is expected to
  // degrade, not correctness.
  acc::LaunchConfig cfg = small_cfg();
  cfg.vector_length = 48;
  run_case<std::int32_t>(acc::ReductionOp::kSum, Nest3{2, 3, 500}, cfg,
                         StrategyConfig{});
  cfg.vector_length = 96;
  run_case<std::int64_t>(acc::ReductionOp::kProd, Nest3{2, 3, 500}, cfg,
                         StrategyConfig{});
}

TEST(VectorReduce, TransposedLayoutPaysBankConflicts) {
  // The measurable claim behind Fig. 6: the transposed staging serializes
  // shared-memory banks; the row-contiguous layout does not.
  StrategyConfig row;
  StrategyConfig tr;
  tr.vector_layout = VectorLayout::kTransposed;
  acc::LaunchConfig cfg;
  cfg.num_gangs = 2;
  cfg.num_workers = 8;
  cfg.vector_length = 128;
  const auto row_res = run_case<float>(acc::ReductionOp::kSum,
                                       Nest3{2, 8, 1024}, cfg, row);
  const auto tr_res = run_case<float>(acc::ReductionOp::kSum,
                                      Nest3{2, 8, 1024}, cfg, tr);
  EXPECT_GT(gpusim::bank_conflict_factor(tr_res.stats),
            1.5 * gpusim::bank_conflict_factor(row_res.stats));
  EXPECT_GT(tr_res.stats.device_time_ns, row_res.stats.device_time_ns);
}

TEST(VectorReduce, WarpTailCutsBarriers) {
  StrategyConfig tail;
  StrategyConfig no_tail;
  no_tail.tree.unroll_last_warp = false;
  const auto with = run_case<int>(acc::ReductionOp::kSum, Nest3{2, 4, 512},
                                  small_cfg(), tail);
  const auto without = run_case<int>(acc::ReductionOp::kSum, Nest3{2, 4, 512},
                                     small_cfg(), no_tail);
  EXPECT_LT(with.stats.barriers, without.stats.barriers);
  EXPECT_GT(with.stats.syncwarps, 0u);
}

TEST(VectorReduce, InterleavedThreadTreeMatchesCpu) {
  StrategyConfig sc;
  sc.tree.addr = AddrMode::kInterleavedThreads;
  run_case<std::int32_t>(acc::ReductionOp::kSum, Nest3{2, 4, 300},
                         small_cfg(), sc);
}

TEST(VectorReduce, ParallelWorkTouchesEveryIteration) {
  gpusim::Device dev;
  const Nest3 n{2, 3, 50};
  const auto count = static_cast<std::size_t>(n.nk * n.nj * n.ni);
  auto host_in = test::make_input<int>(acc::ReductionOp::kSum, count);
  auto input = dev.alloc<int>(count);
  input.copy_from_host(host_in);
  auto marks = dev.alloc<int>(count);
  marks.fill(0);
  auto out = dev.alloc<int>(static_cast<std::size_t>(n.nk * n.nj));
  auto in_view = input.view();
  auto marks_view = marks.view();
  auto out_view = out.view();

  Bindings<int> b;
  b.parallel_work = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                                 std::int64_t j, std::int64_t i) {
    const auto idx = static_cast<std::size_t>((k * n.nj + j) * n.ni + i);
    ctx.st(marks_view, idx, ctx.ld(marks_view, idx) + 1);
  });
  b.contrib = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                           std::int64_t j, std::int64_t i) {
    return ctx.ld(in_view, static_cast<std::size_t>((k * n.nj + j) * n.ni + i));
  });
  b.sink = per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k, std::int64_t j,
                        int r) {
    ctx.st(out_view, static_cast<std::size_t>(k * n.nj + j), r);
  });
  (void)run_vector_reduction<int>(dev, n, small_cfg(), acc::ReductionOp::kSum,
                                  b);
  for (int m : marks.host_span()) EXPECT_EQ(m, 1);
}

TEST(VectorReduce, CoalescedWindowBeatsBlockingOnSegments) {
  // §3.1.3: window sliding enables memory coalescing in the vector partial
  // phase; blocking assignment does not.
  StrategyConfig window;
  StrategyConfig blocking;
  blocking.assignment = Assignment::kBlocking;
  acc::LaunchConfig cfg = small_cfg();
  const auto win_res = run_case<float>(acc::ReductionOp::kSum,
                                       Nest3{2, 4, 4096}, cfg, window);
  const auto blk_res = run_case<float>(acc::ReductionOp::kSum,
                                       Nest3{2, 4, 4096}, cfg, blocking);
  EXPECT_LT(win_res.stats.gmem_segments, blk_res.stats.gmem_segments / 4);
  EXPECT_LT(win_res.stats.device_time_ns, blk_res.stats.device_time_ns);
}

}  // namespace
}  // namespace accred::reduce
