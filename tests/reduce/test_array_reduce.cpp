// Tests for the array-reduction extension (§5's Komoda feature):
// histogram-style folds verified against the CPU, across operators,
// lengths, and assignments. test_array_reduce_leak.cpp checks that a
// failed launch leaves no heap storage on the warps it abandons.
#include "reduce/array_reduce.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace accred::reduce {
namespace {

acc::LaunchConfig small_cfg() {
  acc::LaunchConfig cfg;
  cfg.num_gangs = 6;
  cfg.num_workers = 2;
  cfg.vector_length = 32;
  return cfg;
}

TEST(ArrayReduce, HistogramMatchesCpu) {
  gpusim::Device dev;
  constexpr std::int64_t kN = 50'000;
  constexpr std::size_t kBins = 16;
  auto data = dev.alloc<std::uint32_t>(std::size_t(kN));
  {
    util::SplitMix64 rng(5);
    for (auto& v : data.host_span()) {
      v = static_cast<std::uint32_t>(rng.next_below(256));
    }
  }
  auto dv = data.view();

  auto res = run_array_reduction<std::int64_t>(
      dev, kN, kBins, small_cfg(), acc::ReductionOp::kSum,
      [=](gpusim::ThreadCtx& ctx, std::int64_t i,
          ArrayAccum<std::int64_t>& h) {
        const std::uint32_t v = ctx.ld(dv, std::size_t(i));
        h.add(v / 16, 1);
      });
  EXPECT_EQ(res.kernels, 2);
  ASSERT_EQ(res.values.size(), kBins);

  std::array<std::int64_t, kBins> expect{};
  for (std::uint32_t v : data.host_span()) expect[v / 16] += 1;
  std::int64_t total = 0;
  for (std::size_t b = 0; b < kBins; ++b) {
    EXPECT_EQ(res.values[b], expect[b]) << "bin " << b;
    total += res.values[b];
  }
  EXPECT_EQ(total, kN);
}

TEST(ArrayReduce, PerElementMaxAcrossRows) {
  // Column-wise max over a matrix: element e = max over rows of m[r][e].
  gpusim::Device dev;
  constexpr std::int64_t kRows = 3000;
  constexpr std::size_t kCols = 24;
  auto data = dev.alloc<double>(kRows * kCols);
  {
    util::SplitMix64 rng(11);
    for (auto& v : data.host_span()) v = rng.next_in(-1e6, 1e6);
  }
  auto dv = data.view();

  auto res = run_array_reduction<double>(
      dev, kRows, kCols, small_cfg(), acc::ReductionOp::kMax,
      [=](gpusim::ThreadCtx& ctx, std::int64_t r, ArrayAccum<double>& m) {
        for (std::size_t c = 0; c < kCols; ++c) {
          m.add(c, ctx.ld(dv, std::size_t(r) * kCols + c));
        }
      });

  for (std::size_t c = 0; c < kCols; ++c) {
    double expect = std::numeric_limits<double>::lowest();
    for (std::int64_t r = 0; r < kRows; ++r) {
      expect = std::max(expect,
                        data.host_span()[std::size_t(r) * kCols + c]);
    }
    EXPECT_DOUBLE_EQ(res.values[c], expect) << "col " << c;
  }
}

TEST(ArrayReduce, SingleElementDegeneratesToScalar) {
  gpusim::Device dev;
  auto res = run_array_reduction<std::int32_t>(
      dev, 1'000, 1, small_cfg(), acc::ReductionOp::kSum,
      [](gpusim::ThreadCtx& ctx, std::int64_t,
         ArrayAccum<std::int32_t>& a) {
        ctx.alu(1);
        a.add(0, 1);
      });
  ASSERT_EQ(res.values.size(), 1u);
  EXPECT_EQ(res.values[0], 1'000);
}

TEST(ArrayReduce, BlockingAssignmentAgrees) {
  gpusim::Device dev;
  StrategyConfig sc;
  sc.assignment = Assignment::kBlocking;
  auto res = run_array_reduction<std::int32_t>(
      dev, 7'777, 5, small_cfg(), acc::ReductionOp::kSum,
      [](gpusim::ThreadCtx& ctx, std::int64_t i,
         ArrayAccum<std::int32_t>& a) {
        ctx.alu(1);
        a.add(std::size_t(i % 5), 1);
      },
      sc);
  std::int64_t total = 0;
  for (auto v : res.values) total += v;
  EXPECT_EQ(total, 7'777);
  EXPECT_EQ(res.values[0], 1556);  // ceil(7777/5)
  EXPECT_EQ(res.values[4], 1555);
}

TEST(ArrayReduce, RejectsBadLengthsAndIndices) {
  gpusim::Device dev;
  auto noop = [](gpusim::ThreadCtx&, std::int64_t,
                 ArrayAccum<std::int32_t>&) {};
  EXPECT_THROW((void)run_array_reduction<std::int32_t>(
                   dev, 10, 0, small_cfg(), acc::ReductionOp::kSum, noop),
               std::invalid_argument);
  EXPECT_THROW((void)run_array_reduction<std::int32_t>(
                   dev, 10, 5000, small_cfg(), acc::ReductionOp::kSum, noop),
               std::invalid_argument);
  // Out-of-range element from device code surfaces as a host exception.
  EXPECT_THROW(
      (void)run_array_reduction<std::int32_t>(
          dev, 10, 4, small_cfg(), acc::ReductionOp::kSum,
          [](gpusim::ThreadCtx&, std::int64_t, ArrayAccum<std::int32_t>& a) {
            a.add(4, 1);
          }),
      std::out_of_range);
}

}  // namespace
}  // namespace accred::reduce
