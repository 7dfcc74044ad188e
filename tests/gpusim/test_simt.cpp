// End-to-end tests of the SIMT execution engine: launches, barriers,
// shared memory, warp-synchronous execution, and device-side faults.
#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <vector>

#include "gpusim/launch.hpp"

namespace accred::gpusim {
namespace {

TEST(Simt, EveryThreadRunsExactlyOnce) {
  Device dev;
  auto marks = dev.alloc<int>(4 * 64);
  marks.fill(0);
  auto v = marks.view();
  auto stats = launch(dev, {4}, {8, 8}, 0, [&](ThreadCtx& ctx) {
    const std::size_t idx =
        ctx.blockIdx.x * 64 + ctx.threadIdx.y * 8 + ctx.threadIdx.x;
    ctx.st(v, idx, ctx.ld(v, idx) + 1);
  });
  EXPECT_EQ(stats.blocks, 4u);
  EXPECT_EQ(stats.threads, 256u);
  for (int m : marks.host_span()) EXPECT_EQ(m, 1);
}

TEST(Simt, BuiltinsMatchGeometry) {
  Device dev;
  auto out = dev.alloc<std::uint32_t>(6 * 4);
  auto v = out.view();
  launch(dev, {3, 2}, {2, 2}, 0, [&](ThreadCtx& ctx) {
    EXPECT_EQ(ctx.gridDim.x, 3u);
    EXPECT_EQ(ctx.gridDim.y, 2u);
    EXPECT_EQ(ctx.blockDim.x, 2u);
    const std::size_t block = ctx.blockIdx.y * 3 + ctx.blockIdx.x;
    const std::size_t idx = block * 4 + ctx.threadIdx.y * 2 + ctx.threadIdx.x;
    ctx.st(v, idx, ctx.linear_tid());
  });
  for (std::size_t b = 0; b < 6; ++b) {
    for (std::uint32_t t = 0; t < 4; ++t) {
      EXPECT_EQ(out.host_span()[b * 4 + t], t);
    }
  }
}

TEST(Simt, SyncthreadsOrdersSharedWritesAcrossWarps) {
  // Thread i writes shared[i]; after the barrier, thread i reads
  // shared[(i+37) % n] (a different warp's slot for most i).
  Device dev;
  constexpr std::uint32_t kN = 128;
  auto out = dev.alloc<int>(kN);
  auto v = out.view();
  SharedLayout layout;
  auto sbuf = layout.add<int>(kN);
  launch(dev, {1}, {kN}, layout.bytes(), [&](ThreadCtx& ctx) {
    const std::uint32_t i = ctx.threadIdx.x;
    ctx.sts(sbuf, i, static_cast<int>(i) * 3);
    ctx.syncthreads();
    ctx.st(v, i, ctx.lds(sbuf, (i + 37) % kN));
  });
  for (std::uint32_t i = 0; i < kN; ++i) {
    EXPECT_EQ(out.host_span()[i], static_cast<int>((i + 37) % kN) * 3);
  }
}

TEST(Simt, WithoutBarrierCrossWarpReadsSeeStaleData) {
  // Negative control for the test above: this documents WHY device code
  // needs syncthreads in the simulator exactly as on hardware. Lane order
  // means thread 0 reads before thread 127 writes.
  Device dev;
  constexpr std::uint32_t kN = 128;
  auto out = dev.alloc<int>(kN);
  auto v = out.view();
  SharedLayout layout;
  auto sbuf = layout.add<int>(kN);
  launch(dev, {1}, {kN}, layout.bytes(), [&](ThreadCtx& ctx) {
    const std::uint32_t i = ctx.threadIdx.x;
    ctx.sts(sbuf, i, 1);
    // no syncthreads
    ctx.st(v, i, ctx.lds(sbuf, kN - 1));
  });
  EXPECT_EQ(out.host_span()[0], 0);    // stale: slot 127 not yet written
  EXPECT_EQ(out.host_span()[127], 1);  // writer sees its own store
}

TEST(Simt, SyncwarpOrdersWritesWithinWarp) {
  Device dev;
  auto out = dev.alloc<int>(32);
  auto v = out.view();
  SharedLayout layout;
  auto sbuf = layout.add<int>(32);
  launch(dev, {1}, {32}, layout.bytes(), [&](ThreadCtx& ctx) {
    const std::uint32_t i = ctx.threadIdx.x;
    ctx.sts(sbuf, i, static_cast<int>(i) + 100);
    ctx.syncwarp();
    ctx.st(v, i, ctx.lds(sbuf, 31 - i));
  });
  for (std::uint32_t i = 0; i < 32; ++i) {
    EXPECT_EQ(out.host_span()[i], static_cast<int>(31 - i) + 100);
  }
}

TEST(Simt, SyncwarpDoesNotSynchronizeAcrossWarps) {
  // Warp 1 (threads 32..63) publishes; warp 0 reads warp 1's slot after
  // only a syncwarp: it must see stale data because warp 0 runs first.
  Device dev;
  auto out = dev.alloc<int>(64);
  auto v = out.view();
  SharedLayout layout;
  auto sbuf = layout.add<int>(64);
  launch(dev, {1}, {64}, layout.bytes(), [&](ThreadCtx& ctx) {
    const std::uint32_t i = ctx.threadIdx.x;
    ctx.sts(sbuf, i, 7);
    ctx.syncwarp();
    ctx.st(v, i, ctx.lds(sbuf, (i + 32) % 64));
  });
  EXPECT_EQ(out.host_span()[0], 0);   // warp 0 reads warp 1: stale
  EXPECT_EQ(out.host_span()[32], 7);  // warp 1 reads warp 0: already done
}

TEST(Simt, RepeatedBarriersCount) {
  Device dev;
  auto stats = launch(dev, {3}, {64}, 0, [&](ThreadCtx& ctx) {
    for (int r = 0; r < 5; ++r) ctx.syncthreads();
  });
  EXPECT_EQ(stats.barriers, 15u);  // 5 per block x 3 blocks
}

TEST(Simt, TreeReductionInSharedMemory) {
  // The canonical interleaved log-step pattern of the paper's Fig. 7.
  Device dev;
  constexpr std::uint32_t kN = 256;
  auto out = dev.alloc<long long>(1);
  auto v = out.view();
  SharedLayout layout;
  auto sbuf = layout.add<long long>(kN);
  launch(dev, {1}, {kN}, layout.bytes(), [&](ThreadCtx& ctx) {
    const std::uint32_t i = ctx.threadIdx.x;
    ctx.sts(sbuf, i, static_cast<long long>(i) + 1);
    ctx.syncthreads();
    for (std::uint32_t stride = kN / 2; stride > 0; stride /= 2) {
      if (i < stride) {
        const long long a = ctx.lds(sbuf, i);
        const long long b = ctx.lds(sbuf, i + stride);
        ctx.sts(sbuf, i, a + b);
      }
      ctx.syncthreads();
    }
    if (i == 0) ctx.st(v, 0, ctx.lds(sbuf, 0));
  });
  EXPECT_EQ(out.host_span()[0], 256LL * 257 / 2);
}

TEST(Simt, GridStrideLoopCoversAllElements) {
  // The paper's Fig. 3 window-sliding mapping in its simplest 1-D form.
  Device dev;
  constexpr std::size_t kN = 10'000;
  auto data = dev.alloc<int>(kN);
  data.fill(1);
  auto v = data.view();
  launch(dev, {7}, {64}, 0, [&](ThreadCtx& ctx) {
    for (std::size_t i = ctx.blockIdx.x * 64 + ctx.threadIdx.x; i < kN;
         i += std::size_t{7} * 64) {
      ctx.st(v, i, ctx.ld(v, i) + 41);
    }
  });
  for (int x : data.host_span()) EXPECT_EQ(x, 42);
}

TEST(Simt, OutOfBoundsGlobalAccessThrows) {
  Device dev;
  auto buf = dev.alloc<int>(16);
  auto v = buf.view();
  EXPECT_THROW(launch(dev, {1}, {32}, 0,
                      [&](ThreadCtx& ctx) {
                        (void)ctx.ld(v, ctx.threadIdx.x);  // 16..31 OOB
                      }),
               std::out_of_range);
}

TEST(Simt, OutOfBoundsSharedAccessThrows) {
  Device dev;
  SharedLayout layout;
  auto sbuf = layout.add<int>(8);
  EXPECT_THROW(launch(dev, {1}, {32}, layout.bytes(),
                      [&](ThreadCtx& ctx) { ctx.sts(sbuf, 8, 1); }),
               std::out_of_range);
}

TEST(Simt, FaultDoesNotPoisonSubsequentLaunches) {
  Device dev;
  auto buf = dev.alloc<int>(4);
  auto v = buf.view();
  EXPECT_THROW(launch(dev, {1}, {64}, 0,
                      [&](ThreadCtx& ctx) {
                        ctx.syncthreads();
                        (void)ctx.ld(v, 100);
                      }),
               std::out_of_range);
  // The scheduler must have cleaned up abandoned fibers.
  buf.fill(0);
  auto stats = launch(dev, {1}, {64}, 0, [&](ThreadCtx& ctx) {
    if (ctx.linear_tid() == 0) ctx.st(v, 0, 5);
    ctx.syncthreads();
  });
  EXPECT_EQ(buf.host_span()[0], 5);
  EXPECT_EQ(stats.barriers, 1u);
}

TEST(Simt, StrictBarrierModeFlagsExitDivergence) {
  Device dev;
  SimOptions strict;
  strict.strict_barriers = true;
  EXPECT_THROW(launch(
                   dev, {1}, {64}, 0,
                   [&](ThreadCtx& ctx) {
                     if (ctx.threadIdx.x < 32) return;  // half exit early
                     ctx.syncthreads();
                   },
                   strict),
               std::runtime_error);
  // Default (lenient) mode completes.
  EXPECT_NO_THROW(launch(dev, {1}, {64}, 0, [&](ThreadCtx& ctx) {
    if (ctx.threadIdx.x < 32) return;
    ctx.syncthreads();
  }));
}

TEST(Simt, SharedMemoryIsPerBlock) {
  // Each block accumulates into shared slot 0; blocks must not see each
  // other's slab.
  Device dev;
  auto out = dev.alloc<int>(8);
  auto v = out.view();
  SharedLayout layout;
  auto s = layout.add<int>(1);
  launch(dev, {8}, {32}, layout.bytes(), [&](ThreadCtx& ctx) {
    if (ctx.threadIdx.x == 0) ctx.sts(s, 0, static_cast<int>(ctx.blockIdx.x));
    ctx.syncthreads();
    if (ctx.threadIdx.x == 1) ctx.st(v, ctx.blockIdx.x, ctx.lds(s, 0));
  });
  for (int b = 0; b < 8; ++b) EXPECT_EQ(out.host_span()[b], b);
}

TEST(Simt, LaunchStatsCountCoalescedTraffic) {
  Device dev;
  constexpr std::size_t kN = 1024;
  auto data = dev.alloc<float>(kN);
  auto v = data.view();
  auto stats = launch(dev, {1}, {256}, 0, [&](ThreadCtx& ctx) {
    for (std::size_t i = ctx.threadIdx.x; i < kN; i += 256) {
      (void)ctx.ld(v, i);
    }
  });
  // 1024 coalesced float loads = 1024*4/128 = 32 segments.
  EXPECT_EQ(stats.gmem_segments, 32u);
  EXPECT_EQ(stats.gmem_bytes, 4096u);
  EXPECT_NEAR(coalescing_efficiency(stats), 1.0, 1e-9);
  EXPECT_GT(stats.device_time_ns, 0.0);
}

TEST(Simt, ZDimensionThreadsWork) {
  Device dev;
  auto out = dev.alloc<int>(2 * 2 * 2);
  auto v = out.view();
  launch(dev, {1}, {2, 2, 2}, 0, [&](ThreadCtx& ctx) {
    const std::size_t idx =
        ctx.threadIdx.z * 4 + ctx.threadIdx.y * 2 + ctx.threadIdx.x;
    ctx.st(v, idx, static_cast<int>(idx));
  });
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out.host_span()[i], i);
}

TEST(Simt, NonMultipleOf32BlockRuns) {
  Device dev;
  auto out = dev.alloc<int>(50);
  out.fill(0);
  auto v = out.view();
  launch(dev, {1}, {50}, 0, [&](ThreadCtx& ctx) {
    ctx.st(v, ctx.threadIdx.x, 1);
    ctx.syncthreads();
  });
  for (int m : out.host_span()) EXPECT_EQ(m, 1);
}

// ---- Lazy fiber binding (FastChain, DESIGN.md §12) ------------------------
// Single-threaded so every block runs on this thread's scheduler.

SimOptions serial_options() {
  SimOptions opts;
  opts.sim_threads = 1;
  return opts;
}

TEST(Simt, LanesThatNeverSuspendShareAFiber) {
  // A lane that finishes hands its fiber to the next lane of the pass.
  Device dev;
  constexpr std::uint32_t kN = 128;
  std::vector<Fiber*> seen(kN, nullptr);
  launch(
      dev, {1}, {kN}, 0,
      [&](ThreadCtx& ctx) { seen[ctx.linear_tid()] = Fiber::current(); },
      serial_options());
  for (std::uint32_t t = 0; t < kN; ++t) {
    ASSERT_NE(seen[t], nullptr) << "lane " << t;
    EXPECT_EQ(seen[t], seen[t / 32 * 32]) << "lane " << t;
  }
}

TEST(Simt, ParkedLaneKeepsItsFiber) {
  Device dev;
  constexpr std::uint32_t kN = 64;
  std::vector<Fiber*> before(kN, nullptr);
  std::vector<Fiber*> after(kN, nullptr);
  const LaunchStats stats = launch(
      dev, {1}, {kN}, 0,
      [&](ThreadCtx& ctx) {
        before[ctx.linear_tid()] = Fiber::current();
        ctx.syncthreads();
        after[ctx.linear_tid()] = Fiber::current();
      },
      serial_options());
  EXPECT_EQ(stats.barriers, 1u);
  std::set<Fiber*> held;
  for (std::uint32_t t = 0; t < kN; ++t) {
    ASSERT_NE(before[t], nullptr) << "lane " << t;
    EXPECT_EQ(before[t], after[t]) << "lane " << t;
    held.insert(before[t]);
  }
  EXPECT_EQ(held.size(), kN);  // all 64 lanes were parked at once
}

TEST(Simt, FaultAfterFiberReuse) {
  // Lanes 0-39 of a barrier-free block run on one fiber, then lane 40
  // faults on it and keeps it. The scheduler must refill the free list
  // before the next block on this thread, in which every lane parks and
  // so holds a fiber of its own.
  Device dev;
  constexpr std::uint32_t kN = 64;
  auto buf = dev.alloc<int>(kN);
  auto v = buf.view();
  std::vector<Fiber*> seen(kN, nullptr);
  EXPECT_THROW(launch(
                   dev, {1}, {kN}, 0,
                   [&](ThreadCtx& ctx) {
                     const std::uint32_t t = ctx.linear_tid();
                     seen[t] = Fiber::current();
                     if (t == 40) (void)ctx.ld(v, kN);  // out of bounds
                   },
                   serial_options()),
               std::out_of_range);
  for (std::uint32_t t = 0; t <= 40; ++t) {
    ASSERT_NE(seen[t], nullptr) << "lane " << t;
    EXPECT_EQ(seen[t], seen[0]) << "lane " << t;
  }
  for (std::uint32_t t = 41; t < kN; ++t) {
    EXPECT_EQ(seen[t], nullptr) << "lane " << t << " ran after the fault";
  }

  SharedLayout layout;
  auto sbuf = layout.add<int>(kN);
  buf.fill(0);
  const LaunchStats stats = launch(
      dev, {1}, {kN}, layout.bytes(),
      [&](ThreadCtx& ctx) {
        const std::uint32_t t = ctx.linear_tid();
        ctx.sts(sbuf, t, static_cast<int>(t) + 1);
        ctx.syncthreads();
        ctx.st(v, t, ctx.lds(sbuf, (t + 33) % kN));
      },
      serial_options());
  EXPECT_EQ(stats.barriers, 1u);
  for (std::uint32_t t = 0; t < kN; ++t) {
    EXPECT_EQ(buf.host_span()[t], static_cast<int>((t + 33) % kN) + 1);
  }
}

}  // namespace
}  // namespace accred::gpusim
