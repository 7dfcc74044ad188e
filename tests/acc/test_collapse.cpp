// Tests for collapse(n) support: index math, Region integration, and a
// verified 4-deep nest reduced through a collapsed vector loop.
#include "acc/collapse.hpp"

#include <gtest/gtest.h>

#include "acc/region.hpp"
#include "test_support.hpp"

namespace accred::acc {
namespace {

TEST(Collapse, ExtentProducts) {
  const std::int64_t ext[] = {3, 5, 7};
  EXPECT_EQ(collapsed_extent(ext), 105);
  const std::int64_t one[] = {42};
  EXPECT_EQ(collapsed_extent(one), 42);
  const std::int64_t bad[] = {3, 0};
  EXPECT_THROW((void)collapsed_extent(bad), std::invalid_argument);
  const std::int64_t huge[] = {1LL << 40, 1LL << 40};
  EXPECT_THROW((void)collapsed_extent(huge), std::invalid_argument);
}

TEST(Collapse, DecomposeRoundTrips) {
  const std::array<std::int64_t, 3> ext{3, 5, 7};
  std::int64_t flat = 0;
  for (std::int64_t a = 0; a < 3; ++a) {
    for (std::int64_t b = 0; b < 5; ++b) {
      for (std::int64_t c = 0; c < 7; ++c, ++flat) {
        const auto idx = decompose_index(flat, ext);
        EXPECT_EQ(idx[0], a);
        EXPECT_EQ(idx[1], b);
        EXPECT_EQ(idx[2], c);
      }
    }
  }
}

TEST(Collapse, RegionRejectsMismatchedArity) {
  gpusim::Device dev;
  Region region(dev);
  EXPECT_THROW(region.loop("loop gang collapse(2)", {3, 4, 5}),
               std::invalid_argument);
  EXPECT_THROW(region.loop("loop gang collapse(2)", std::int64_t{12}),
               std::invalid_argument);
  EXPECT_NO_THROW(region.loop("loop gang collapse(2)", {3, 4}));
  EXPECT_EQ(region.nest().loops.back().extent, 12);
}

TEST(Collapse, FourDeepNestThroughCollapsedVectorLoop) {
  // for a: gang / for b: worker / collapse(2) for (c, d): vector reduction.
  gpusim::Device dev;
  constexpr std::int64_t kA = 3;
  constexpr std::int64_t kB = 4;
  constexpr std::int64_t kC = 5;
  constexpr std::int64_t kD = 37;
  const std::array<std::int64_t, 2> inner{kC, kD};
  const auto count = std::size_t(kA * kB * kC * kD);
  auto host = test::make_input<std::int64_t>(ReductionOp::kSum, count);
  auto data = dev.alloc<std::int64_t>(count);
  data.copy_from_host(host);
  auto out = dev.alloc<std::int64_t>(std::size_t(kA * kB));
  auto dv = data.view();
  auto ov = out.view();

  Region region(dev);
  region.parallel("parallel num_gangs(3) num_workers(2) vector_length(32)")
      .loop("loop gang", kA)
      .loop("loop worker", kB)
      .loop("loop vector collapse(2) reduction(+:s)", {kC, kD})
      .var("s", DataType::kInt64, /*accum=*/2, /*use=*/1);

  reduce::Bindings<std::int64_t> b;
  b.contrib = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t a,
                                   std::int64_t bb, std::int64_t flat) {
    // Recover (c, d) exactly as collapsed user code would.
    const auto [c, d] = decompose_index<2>(flat, inner);
    return ctx.ld(dv, std::size_t(((a * kB + bb) * kC + c) * kD + d));
  });
  b.sink = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t a,
                                std::int64_t bb, std::int64_t r) {
    ctx.st(ov, std::size_t(a * kB + bb), r);
  });
  (void)region.run<std::int64_t>(b);

  for (std::int64_t a = 0; a < kA; ++a) {
    for (std::int64_t bb = 0; bb < kB; ++bb) {
      std::span<const std::int64_t> slab(
          host.data() + (a * kB + bb) * kC * kD, std::size_t(kC * kD));
      EXPECT_EQ(out.host_span()[std::size_t(a * kB + bb)],
                test::cpu_fold<std::int64_t>(ReductionOp::kSum, slab));
    }
  }
}

TEST(Collapse, SameLoopCollapseOverWholeSpace) {
  // All four loops collapsed onto one gang+vector line (Fig. 10 style).
  gpusim::Device dev;
  const std::array<std::int64_t, 4> ext{3, 4, 5, 6};
  const auto count = std::size_t(3 * 4 * 5 * 6);
  auto data = dev.alloc<std::int32_t>(count);
  data.fill(2);
  auto dv = data.view();

  Region region(dev);
  region.parallel("parallel num_gangs(4) vector_length(32)")
      .loop("loop gang vector collapse(4) reduction(+:t)", {3, 4, 5, 6})
      .var("t", DataType::kInt32, 0);
  reduce::Bindings<std::int32_t> b;
  b.contrib = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t flat,
                                   std::int64_t, std::int64_t) {
    const auto idx = decompose_index<4>(flat, ext);
    (void)idx;
    return ctx.ld(dv, std::size_t(flat));
  });
  auto res = region.run<std::int32_t>(b);
  ASSERT_TRUE(res.scalar.has_value());
  EXPECT_EQ(*res.scalar, static_cast<std::int32_t>(2 * count));
}

}  // namespace
}  // namespace accred::acc
