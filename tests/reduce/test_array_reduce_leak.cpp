// A failed array-reduction launch must leave no heap storage behind on the
// warps it abandons. The test counts live allocations through a replaced
// global operator new/delete. The replacement holds for the whole binary
// and, under AddressSanitizer, takes the place of ASan's own new/delete
// hooks, so it lives in this binary alone and the other ArrayReduce tests
// (test_array_reduce.cpp) keep ASan's new/delete mismatch checks.
#include "reduce/array_reduce.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

// Live operator-new allocations of this test binary, so a test can tell a
// leak from storage that is reused. The replacements are kept out of line:
// inlined into a new-expression's caller, gcc's -Wmismatched-new-delete
// reads their malloc/free as a new paired with free.
namespace {
std::atomic<std::int64_t> g_live_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  g_live_allocations.fetch_add(1, std::memory_order_relaxed);
  return p;
}
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_allocations.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }

namespace accred::reduce {
namespace {

TEST(ArrayReduce, FailedLaunchLeavesNothingOnParkedWarps) {
  // One block of four warps on one host thread. Iteration i runs on thread
  // i, so the bad element comes from warp 3 after warps 0..2 have finished
  // their loops and parked at the tree's first barrier; the failed launch
  // abandons them without unwinding their frames. A clean launch on the
  // same thread follows. Once the first round has sized every reused
  // buffer, further rounds must not change the live allocation count.
  static constexpr std::int64_t kExtent = 128;
  static constexpr std::size_t kLen = 8;
  static constexpr std::int64_t kBad = 100;
  acc::LaunchConfig cfg;
  cfg.num_gangs = 1;
  cfg.num_workers = 1;
  cfg.vector_length = 128;
  StrategyConfig sc;
  sc.sim.sim_threads = 1;
  const auto round = [&] {
    gpusim::Device dev;
    EXPECT_THROW((void)run_array_reduction<std::int64_t>(
                     dev, kExtent, kLen, cfg, acc::ReductionOp::kSum,
                     [](gpusim::ThreadCtx&, std::int64_t i,
                        ArrayAccum<std::int64_t>& a) {
                       a.add(i == kBad ? kLen : std::size_t(i) % kLen, 1);
                     },
                     sc),
                 std::out_of_range);
    const auto res = run_array_reduction<std::int64_t>(
        dev, kExtent, kLen, cfg, acc::ReductionOp::kSum,
        [](gpusim::ThreadCtx&, std::int64_t i, ArrayAccum<std::int64_t>& a) {
          a.add(std::size_t(i) % kLen, 1);
        },
        sc);
    EXPECT_EQ(res.values, std::vector<std::int64_t>(kLen, kExtent / kLen));
  };
  round();
  const std::int64_t live = g_live_allocations.load();
  round();
  round();
  EXPECT_EQ(g_live_allocations.load(), live);
}

}  // namespace
}  // namespace accred::reduce
