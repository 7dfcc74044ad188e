#include "reduce/window.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace accred::reduce {
namespace {

/// Each thread's in-range iterations and padded iteration count under
/// warp_assigned_loop, run over warps of 32 thread ids (the last one
/// partial when nthreads is not a multiple of 32).
struct Assigned {
  std::vector<std::vector<std::int64_t>> active;  ///< per thread
  std::vector<std::int64_t> iters;                ///< per thread
};

Assigned assign(Assignment mode, std::int64_t extent, std::int64_t nthreads) {
  Assigned a;
  a.active.resize(static_cast<std::size_t>(nthreads));
  a.iters.assign(static_cast<std::size_t>(nthreads), 0);
  for (std::int64_t base = 0; base < nthreads; base += 32) {
    gpusim::Lanes<std::int64_t> id{};
    gpusim::LaneMask lanes = 0;
    for (std::uint32_t l = 0; l < 32 && base + l < nthreads; ++l) {
      id[l] = base + l;
      lanes |= gpusim::LaneMask{1} << l;
    }
    warp_assigned_loop(
        mode, extent, id, nthreads, lanes,
        [&](const gpusim::Lanes<std::int64_t>& idx, gpusim::LaneMask m) {
          EXPECT_EQ(m & ~lanes, 0U) << "a lane outside the call is active";
          gpusim::for_each_lane(lanes, [&](std::uint32_t l) {
            const auto t = static_cast<std::size_t>(base + l);
            a.iters[t] += 1;
            if ((m >> l & 1U) != 0) a.active[t].push_back(idx[l]);
          });
        });
  }
  return a;
}

TEST(CeilDiv, Basics) {
  EXPECT_EQ(ceil_div(0, 4), 0);
  EXPECT_EQ(ceil_div(1, 4), 1);
  EXPECT_EQ(ceil_div(4, 4), 1);
  EXPECT_EQ(ceil_div(5, 4), 2);
  EXPECT_EQ(ceil_div(1'000'000, 192), 5209);
}

class AssignmentCoverage
    : public ::testing::TestWithParam<std::tuple<Assignment, std::int64_t,
                                                 std::int64_t>> {};

TEST_P(AssignmentCoverage, PartitionIsExactAndDisjoint) {
  const auto [mode, extent, nthreads] = GetParam();
  std::set<std::int64_t> seen;
  for (const std::vector<std::int64_t>& mine :
       assign(mode, extent, nthreads).active) {
    for (std::int64_t idx : mine) {
      EXPECT_GE(idx, 0);
      EXPECT_LT(idx, extent);
      EXPECT_TRUE(seen.insert(idx).second) << "index " << idx << " duplicated";
    }
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(extent));
}

TEST_P(AssignmentCoverage, AllThreadsRunSameIterationCount) {
  const auto [mode, extent, nthreads] = GetParam();
  for (std::int64_t iters : assign(mode, extent, nthreads).iters) {
    EXPECT_EQ(iters, ceil_div(extent, nthreads));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AssignmentCoverage,
    ::testing::Combine(::testing::Values(Assignment::kWindow,
                                         Assignment::kBlocking),
                       ::testing::Values<std::int64_t>(1, 2, 31, 32, 33, 100,
                                                       1000, 4096, 4097),
                       ::testing::Values<std::int64_t>(1, 3, 32, 128)));

TEST(Window, ConsecutiveThreadsGetConsecutiveIndices) {
  // The coalescing property the paper's §3.1.3 is about.
  const Assigned a = assign(Assignment::kWindow, 256, 32);
  const std::vector<std::int64_t>& t0 = a.active[0];
  const std::vector<std::int64_t>& t1 = a.active[1];
  ASSERT_EQ(t0.size(), 8u);
  for (std::size_t s = 0; s < t0.size(); ++s) {
    EXPECT_EQ(t1[s], t0[s] + 1);  // adjacent lanes touch adjacent elements
  }
}

TEST(Blocking, ConsecutiveThreadsGetDistantChunks) {
  const Assigned a = assign(Assignment::kBlocking, 256, 32);
  const std::vector<std::int64_t>& t0 = a.active[0];
  const std::vector<std::int64_t>& t1 = a.active[1];
  ASSERT_EQ(t0.size(), 8u);
  EXPECT_EQ(t0.back() + 1, t1.front());  // contiguous chunks
  EXPECT_EQ(t1.front() - t0.front(), 8); // lanes 8 elements apart
}

}  // namespace
}  // namespace accred::reduce
