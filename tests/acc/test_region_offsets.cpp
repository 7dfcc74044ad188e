// Tests for the Fig. 3 start-offset support: loops with non-zero lower
// bounds deliver original indices to the bindings.
#include <gtest/gtest.h>

#include "acc/region.hpp"

namespace accred::acc {
namespace {

TEST(RegionOffsets, RangeLoopDeliversOriginalIndices) {
  gpusim::Device dev;
  // Sum of the index values themselves over k in [10, 40), i in [5, 25).
  Region region(dev);
  region.parallel("parallel num_gangs(4) num_workers(2) vector_length(32)")
      .loop("loop gang", 10, 40)
      .loop("loop worker", 0, 2)
      .loop("loop vector reduction(+:s)", 5, 25)
      .var("s", DataType::kInt64, /*accum=*/2, /*use=*/1);

  gpusim::Device* devp = &dev;
  auto sums = dev.alloc<std::int64_t>(30 * 2);
  auto sv = sums.view();
  (void)devp;
  reduce::Bindings<std::int64_t> b;
  b.contrib = reduce::per_lane([](gpusim::ThreadCtx& ctx, std::int64_t k,
                                  std::int64_t j,
                                  std::int64_t i) -> std::int64_t {
    EXPECT_GE(k, 10);
    EXPECT_LT(k, 40);
    EXPECT_GE(j, 0);
    EXPECT_LT(j, 2);
    EXPECT_GE(i, 5);
    EXPECT_LT(i, 25);
    ctx.alu(1);
    return k * 1000 + i;
  });
  b.sink = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                                std::int64_t j, std::int64_t r) {
    EXPECT_GE(k, 10);
    EXPECT_LT(k, 40);
    ctx.st(sv, std::size_t((k - 10) * 2 + j), r);
  });
  (void)region.run<std::int64_t>(b);

  for (std::int64_t k = 10; k < 40; ++k) {
    std::int64_t expect = 0;
    for (std::int64_t i = 5; i < 25; ++i) expect += k * 1000 + i;
    for (std::int64_t j = 0; j < 2; ++j) {
      EXPECT_EQ(sums.host_span()[std::size_t((k - 10) * 2 + j)], expect)
          << "k=" << k;
    }
  }
}

TEST(RegionOffsets, InstanceInitSeesOriginalIndices) {
  gpusim::Device dev;
  Region region(dev);
  region.parallel("parallel num_gangs(2) num_workers(2) vector_length(32)")
      .loop("loop gang", 100, 102)
      .loop("loop worker", 0, 2)
      .loop("loop vector reduction(+:s)", 0, 64)
      .var("s", DataType::kInt32, 2, 1);
  auto out = dev.alloc<std::int32_t>(4);
  auto ov = out.view();
  reduce::Bindings<std::int32_t> b;
  b.contrib = reduce::per_lane([](gpusim::ThreadCtx& ctx, std::int64_t,
                                  std::int64_t, std::int64_t) {
    ctx.alu(1);
    return 1;
  });
  b.instance_init = [](std::int64_t k, std::int64_t j) {
    return static_cast<std::int32_t>(k * 10 + j);  // k is 100 or 101
  };
  b.sink = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                                std::int64_t j, std::int32_t r) {
    ctx.st(ov, std::size_t((k - 100) * 2 + j), r);
  });
  (void)region.run<std::int32_t>(b);
  for (std::int64_t k = 100; k < 102; ++k) {
    for (std::int64_t j = 0; j < 2; ++j) {
      EXPECT_EQ(out.host_span()[std::size_t((k - 100) * 2 + j)],
                k * 10 + j + 64);
    }
  }
}

TEST(RegionOffsets, ZeroBasedLoopsTakeTheFastPath) {
  gpusim::Device dev;
  Region region(dev);
  region.loop("loop gang vector reduction(+:t)", 0, 1000)
      .var("t", DataType::kInt32, 0);
  reduce::Bindings<std::int32_t> b;
  b.contrib = reduce::per_lane([](gpusim::ThreadCtx& ctx, std::int64_t,
                                  std::int64_t, std::int64_t) {
    ctx.alu(1);
    return 1;
  });
  auto res = region.run<std::int32_t>(b);
  EXPECT_EQ(res.scalar.value_or(0), 1000);
}

}  // namespace
}  // namespace accred::acc
