// Tests for the finalization kernels: the paper's single-block second
// kernel (Fig. 5c) and the two-pass extension, across counts and widths.
#include "reduce/finalize.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"

namespace accred::reduce {
namespace {

template <typename T>
T finalize_once(std::size_t count, acc::ReductionOp op, bool two_pass,
                gpusim::LaunchStats* stats_out = nullptr,
                Staging staging = Staging::kShared) {
  gpusim::Device dev;
  auto host = test::make_input<T>(op, count);
  auto in = dev.alloc<T>(count);
  in.copy_from_host(host);
  auto out = dev.alloc<T>(1);
  StrategyConfig sc;
  sc.staging = staging;
  gpusim::LaunchStats stats =
      two_pass ? launch_finalize_two_pass(dev, in.view(), count, out.view(),
                                          op, sc)
               : launch_finalize(dev, in.view(), count, out.view(), op, sc);
  if (stats_out != nullptr) *stats_out = stats;
  const T expect = test::cpu_fold<T>(op, std::span<const T>(host));
  EXPECT_TRUE(testsuite::reduction_result_matches(expect, out.host_span()[0],
                                                  count))
      << "count=" << count << " two_pass=" << two_pass
      << " global staging=" << (staging == Staging::kGlobal);
  return out.host_span()[0];
}

TEST(Finalize, SingleBlockAllCounts) {
  for (std::size_t count : {1u, 2u, 31u, 192u, 255u, 256u, 257u, 5000u}) {
    (void)finalize_once<std::int64_t>(count, acc::ReductionOp::kSum, false);
    (void)finalize_once<double>(count, acc::ReductionOp::kMax, false);
  }
}

TEST(Finalize, TwoPassAllCounts) {
  // Both passes follow the staging choice; the global form stages through
  // a buffer launch_finalize allocates for itself.
  for (const Staging staging : {Staging::kShared, Staging::kGlobal}) {
    for (std::size_t count : {1u, 200u, 4096u, 100'000u, 196'608u}) {
      (void)finalize_once<std::int64_t>(count, acc::ReductionOp::kSum, true,
                                        nullptr, staging);
      (void)finalize_once<std::uint32_t>(count, acc::ReductionOp::kBitXor,
                                         true, nullptr, staging);
    }
  }
}

TEST(Finalize, TwoPassBeatsSingleBlockOnLargeBuffers) {
  // The RMP partials buffer (192 x 8 x 128 = 196608 entries) serializes a
  // single-block finalize on one SM; the two-pass spreads pass one over
  // the whole device.
  gpusim::LaunchStats one;
  gpusim::LaunchStats two;
  (void)finalize_once<float>(196'608, acc::ReductionOp::kSum, false, &one);
  (void)finalize_once<float>(196'608, acc::ReductionOp::kSum, true, &two);
  EXPECT_LT(two.device_time_ns, one.device_time_ns);
}

TEST(Finalize, SingleBlockWinsOnSmallBuffers) {
  // Fig. 5c's choice is right for the gang case: 192 partials do not
  // amortize a second launch.
  gpusim::LaunchStats one;
  gpusim::LaunchStats two;
  (void)finalize_once<float>(192, acc::ReductionOp::kSum, false, &one);
  (void)finalize_once<float>(192, acc::ReductionOp::kSum, true, &two);
  EXPECT_LT(one.device_time_ns, two.device_time_ns);
}

}  // namespace
}  // namespace accred::reduce
