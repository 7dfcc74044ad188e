// Tests for the §6 OpenMP 4.0 facade: directive parsing, the
// teams->gang / parallel-for+simd->vector mapping with the worker level
// ignored, and verified end-to-end reductions.
#include "acc/openmp.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"

namespace accred::acc {
namespace {

TEST(OmpParser, CombinedConstructs) {
  auto d = parse_omp_directive(
      "#pragma omp target teams distribute num_teams(64)");
  EXPECT_TRUE(d.teams);
  EXPECT_FALSE(d.parallel_for);
  EXPECT_EQ(d.num_teams, 64u);

  d = parse_omp_directive("omp parallel for simd reduction(+:acc)");
  EXPECT_FALSE(d.teams);
  EXPECT_TRUE(d.parallel_for);
  EXPECT_TRUE(d.simd);
  ASSERT_EQ(d.reductions.size(), 1u);
  EXPECT_EQ(d.reductions[0].var, "acc");

  d = parse_omp_directive(
      "omp target teams distribute parallel for num_threads(128) "
      "reduction(max:m)");
  EXPECT_TRUE(d.teams);
  EXPECT_TRUE(d.parallel_for);
  EXPECT_EQ(d.num_threads, 128u);
  EXPECT_EQ(d.reductions[0].op, ReductionOp::kMax);
}

TEST(OmpParser, IgnoredClausesAndRejects) {
  auto d = parse_omp_directive(
      "omp target teams map(to: x[0:n], y[0:n]) private(tmp) "
      "schedule(static, 4)");
  EXPECT_TRUE(d.teams);
  EXPECT_THROW((void)parse_omp_directive("acc loop gang"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_omp_directive("omp sections"),
               std::invalid_argument);
}

TEST(OmpTarget, TwoLevelMappingIgnoresWorker) {
  gpusim::Device dev;
  OmpTarget target(dev);
  target.loop("omp target teams distribute num_teams(16)", 100)
      .loop("omp parallel for simd num_threads(64) reduction(+:s)", 2048)
      .var("s", DataType::kInt64, /*accum=*/1, /*use=*/0);
  const auto plan = target.plan();
  // §6's mapping: gang & vector only, one worker.
  EXPECT_EQ(plan.kind, StrategyKind::kVector);
  EXPECT_EQ(plan.launch.num_workers, 1u);
  EXPECT_EQ(plan.launch.num_gangs, 16u);
  EXPECT_EQ(plan.launch.vector_length, 64u);
}

TEST(OmpTarget, ReductionEndToEnd) {
  gpusim::Device dev;
  constexpr std::int64_t kTeams = 37;
  constexpr std::int64_t kN = 1000;
  auto host = test::make_input<double>(ReductionOp::kSum,
                                       std::size_t(kTeams * kN));
  auto data = dev.alloc<double>(host.size());
  data.copy_from_host(host);
  auto out = dev.alloc<double>(std::size_t(kTeams));
  auto dv = data.view();
  auto ov = out.view();

  OmpTarget target(dev);
  target.loop("omp target teams distribute num_teams(8)", kTeams)
      .loop("omp parallel for simd num_threads(64) reduction(+:s)", kN)
      .var("s", DataType::kDouble, 1, 0);

  reduce::Bindings<double> b;
  b.contrib = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t t,
                                   std::int64_t, std::int64_t i) {
    return ctx.ld(dv, std::size_t(t * kN + i));
  });
  b.sink = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t t,
                                std::int64_t, double r) {
    ctx.st(ov, std::size_t(t), r);
  });
  (void)target.run<double>(b);

  for (std::int64_t t = 0; t < kTeams; ++t) {
    std::span<const double> row(host.data() + t * kN, std::size_t(kN));
    EXPECT_TRUE(testsuite::reduction_result_matches(
        test::cpu_fold<double>(ReductionOp::kSum, row),
        out.host_span()[std::size_t(t)], std::uint64_t(kN)))
        << "team " << t;
  }
}

TEST(OmpTarget, CombinedTeamsParallelForScalar) {
  gpusim::Device dev;
  constexpr std::int64_t kN = 12'345;
  auto data = dev.alloc<std::int32_t>(std::size_t(kN));
  data.fill(3);
  auto dv = data.view();

  OmpTarget target(dev);
  target.loop("omp target teams distribute parallel for simd "
              "num_teams(12) num_threads(64) reduction(+:total)",
              kN)
      .var("total", DataType::kInt32, 0);
  const auto plan = target.plan();
  EXPECT_EQ(plan.kind, StrategyKind::kSameLoop);

  reduce::Bindings<std::int32_t> b;
  b.contrib = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t i,
                                   std::int64_t, std::int64_t) {
    return ctx.ld(dv, std::size_t(i));
  });
  auto res = target.run<std::int32_t>(b);
  ASSERT_TRUE(res.scalar.has_value());
  EXPECT_EQ(*res.scalar, 3 * kN);
}

TEST(OmpTarget, RejectsUnparallelLoop) {
  gpusim::Device dev;
  OmpTarget target(dev);
  EXPECT_THROW(target.loop("omp target", 100), std::invalid_argument);
}

}  // namespace
}  // namespace accred::acc
