// End-to-end tests of the Region front door: directive text in, verified
// reduction results out, for each compiler profile.
#include "acc/region.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"

namespace accred::acc {
namespace {

TEST(Region, VectorReductionEndToEnd) {
  gpusim::Device dev;
  constexpr std::int64_t kNk = 4;
  constexpr std::int64_t kNj = 6;
  constexpr std::int64_t kNi = 300;
  auto host_in = test::make_input<float>(ReductionOp::kSum,
                                         std::size_t(kNk * kNj * kNi));
  auto input = dev.alloc<float>(host_in.size());
  input.copy_from_host(host_in);
  auto out = dev.alloc<float>(std::size_t(kNk * kNj));
  auto in_view = input.view();
  auto out_view = out.view();

  Region region(dev);
  region.parallel("parallel num_gangs(4) num_workers(4) vector_length(64)")
      .loop("loop gang", kNk)
      .loop("loop worker", kNj)
      .loop("loop vector reduction(+:c)", kNi)
      .var("c", DataType::kFloat, /*accum_level=*/2, /*use_level=*/1);

  auto plan = region.plan();
  EXPECT_EQ(plan.kind, StrategyKind::kVector);

  reduce::Bindings<float> b;
  b.contrib = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                                   std::int64_t j, std::int64_t i) {
    return ctx.ld(in_view, std::size_t((k * kNj + j) * kNi + i));
  });
  b.sink = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                                std::int64_t j, float r) {
    ctx.st(out_view, std::size_t(k * kNj + j), r);
  });
  auto res = region.run<float>(b);
  EXPECT_EQ(res.kernels, 1);

  for (std::int64_t k = 0; k < kNk; ++k) {
    for (std::int64_t j = 0; j < kNj; ++j) {
      std::span<const float> row(host_in.data() + (k * kNj + j) * kNi,
                                 std::size_t(kNi));
      EXPECT_TRUE(testsuite::reduction_result_matches(
          test::cpu_fold<float>(ReductionOp::kSum, row),
          out.host_span()[std::size_t(k * kNj + j)], std::uint64_t(kNi)));
    }
  }
}

TEST(Region, ScalarSumAcrossAllLevels) {
  gpusim::Device dev;
  constexpr std::int64_t kN = 40'000;
  auto host_in = test::make_input<std::int64_t>(ReductionOp::kSum,
                                                std::size_t(kN));
  auto input = dev.alloc<std::int64_t>(std::size_t(kN));
  input.copy_from_host(host_in);
  auto in_view = input.view();

  Region region(dev);
  region.parallel("parallel num_gangs(16) num_workers(4) vector_length(32)")
      .loop("loop gang vector reduction(+:total)", kN)
      .var("total", DataType::kInt64, 0);

  auto plan = region.plan();
  EXPECT_EQ(plan.kind, StrategyKind::kSameLoop);
  EXPECT_EQ(plan.launch.num_workers, 1u);

  reduce::Bindings<std::int64_t> b;
  b.contrib = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t idx,
                                   std::int64_t, std::int64_t) {
    return ctx.ld(in_view, std::size_t(idx));
  });
  b.host_init = 1000;
  b.host_init_set = true;
  auto res = region.run<std::int64_t>(b);
  ASSERT_TRUE(res.scalar.has_value());
  EXPECT_EQ(*res.scalar, 1000 + test::cpu_fold<std::int64_t>(
                                    ReductionOp::kSum,
                                    std::span<const std::int64_t>(host_in)));
}

TEST(Region, CapsProfileRejectsAutoSpan) {
  gpusim::Device dev;
  Region region(dev, profile(CompilerId::kCapsLike));
  region.loop("loop gang", 8)
      .loop("loop worker reduction(+:j_sum)", 8)
      .loop("loop vector", 64)
      .var("j_sum", DataType::kInt32, /*accum=*/2, /*use=*/0);
  EXPECT_THROW((void)region.plan(), AnalysisError);
}

TEST(Region, OpenUHAcceptsSameNest) {
  gpusim::Device dev;
  constexpr std::int64_t kNk = 3;
  constexpr std::int64_t kNj = 8;
  constexpr std::int64_t kNi = 64;
  auto input = dev.alloc<int>(std::size_t(kNk * kNj * kNi));
  input.fill(2);
  auto out = dev.alloc<int>(std::size_t(kNk));
  auto in_view = input.view();
  auto out_view = out.view();

  Region region(dev);
  region.parallel("parallel num_gangs(2) num_workers(4) vector_length(32)")
      .loop("loop gang", kNk)
      .loop("loop worker reduction(+:j_sum)", kNj)
      .loop("loop vector", kNi)
      .var("j_sum", DataType::kInt32, 2, 0);
  auto plan = region.plan();
  EXPECT_EQ(plan.kind, StrategyKind::kWorkerVector);

  reduce::Bindings<int> b;
  b.contrib = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                                   std::int64_t j, std::int64_t i) {
    return ctx.ld(in_view, std::size_t((k * kNj + j) * kNi + i));
  });
  b.sink = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                                std::int64_t, int r) {
    ctx.st(out_view, std::size_t(k), r);
  });
  (void)region.run<int>(b);
  for (int r : out.host_span()) EXPECT_EQ(r, 2 * kNj * kNi);
}

TEST(Region, CompiledHandleRunsRepeatedly) {
  gpusim::Device dev;
  constexpr std::int64_t kN = 5'000;
  auto data = dev.alloc<std::int64_t>(std::size_t(kN));
  data.fill(1);
  auto dv = data.view();
  Region region(dev);
  region.parallel("parallel num_gangs(4) vector_length(64)")
      .loop("loop gang vector reduction(+:s)", kN)
      .var("s", DataType::kInt64, 0);
  const Region::Compiled compiled = region.compile();
  EXPECT_EQ(compiled.plan().kind, StrategyKind::kSameLoop);
  reduce::Bindings<std::int64_t> b;
  b.contrib = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t i,
                                   std::int64_t, std::int64_t) {
    return ctx.ld(dv, std::size_t(i));
  });
  for (int r = 0; r < 3; ++r) {
    auto res = compiled.run<std::int64_t>(b);
    ASSERT_TRUE(res.scalar.has_value());
    EXPECT_EQ(*res.scalar, kN);
  }
}

TEST(Region, LoopSizeArgumentsSetLaunchShape) {
  gpusim::Device dev;
  Region region(dev);
  region.loop("loop gang(24) vector(64) reduction(+:t)", 1000)
      .var("t", DataType::kInt32, 0);
  const auto plan = region.plan();
  EXPECT_EQ(plan.launch.num_gangs, 24u);
  EXPECT_EQ(plan.launch.vector_length, 64u);
}

TEST(Region, ExecuteRejectsTypeMismatch) {
  gpusim::Device dev;
  Region region(dev);
  region.loop("loop gang reduction(+:s)", 100).var("s", DataType::kFloat, 0);
  reduce::Bindings<double> b;
  b.contrib = reduce::per_lane([](gpusim::ThreadCtx&, std::int64_t,
                                  std::int64_t, std::int64_t) {
    return 1.0;
  });
  EXPECT_THROW((void)region.run<double>(b), std::invalid_argument);
}

TEST(Region, ProfilesAgreeOnResults) {
  // The three profiles differ in cost, never in the computed value (on the
  // cells where the modeled compilers work at all).
  for (CompilerId id :
       {CompilerId::kOpenUH, CompilerId::kCapsLike, CompilerId::kPgiLike}) {
    gpusim::Device dev;
    constexpr std::int64_t kN = 9'999;
    auto host_in =
        test::make_input<double>(ReductionOp::kProd, std::size_t(kN));
    auto input = dev.alloc<double>(std::size_t(kN));
    input.copy_from_host(host_in);
    auto in_view = input.view();

    Region region(dev, profile(id));
    region.parallel("parallel num_gangs(8) num_workers(2) vector_length(32)")
        .loop("loop gang worker vector reduction(*:p)", kN)
        .var("p", DataType::kDouble, 0);
    reduce::Bindings<double> b;
    b.contrib = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t idx,
                                     std::int64_t, std::int64_t) {
      return ctx.ld(in_view, std::size_t(idx));
    });
    auto res = region.run<double>(b);
    ASSERT_TRUE(res.scalar.has_value()) << to_string(id);
    EXPECT_TRUE(testsuite::reduction_result_matches(
        test::cpu_fold<double>(ReductionOp::kProd,
                               std::span<const double>(host_in)),
        *res.scalar, std::uint64_t(kN)))
        << to_string(id);
  }
}

}  // namespace
}  // namespace accred::acc
