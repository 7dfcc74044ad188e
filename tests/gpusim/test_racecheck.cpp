// Unit tests of the dynamic race detector (gpusim/racecheck.hpp): epoch
// semantics of syncthreads/syncwarp, shared vs global tracking, report
// dedup and caps, stage attribution, determinism across sim_threads, and
// the stats-identity contract (racecheck never perturbs the cost model).
#include "gpusim/racecheck.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "gpusim/launch.hpp"

namespace accred::gpusim {
namespace {

SimOptions rc_opts() {
  SimOptions o;
  o.racecheck = true;
  o.sim_threads = 1;
  return o;
}

TEST(Racecheck, WawOnSameSharedWordIsDetectedAndDeduped) {
  Device dev;
  SharedLayout layout;
  auto sbuf = layout.add<int>(1);
  const auto stats = launch(
      dev, {1}, {64}, layout.bytes(),
      [&](ThreadCtx& ctx) {
        ctx.sts(sbuf, 0, static_cast<int>(ctx.threadIdx.x));
      },
      rc_opts());
  EXPECT_TRUE(stats.racecheck);
  // 64 sequential writers: each conflicts with the previous one.
  EXPECT_EQ(stats.races, 63u);
  // ...but one word + one hazard kind = one report.
  ASSERT_EQ(stats.race_reports.size(), 1u);
  const RaceReport& r = stats.race_reports[0];
  EXPECT_STREQ(r.kind(), "WAW");
  EXPECT_EQ(r.space, RaceReport::Space::kShared);
  EXPECT_EQ(r.addr, 0u);
  EXPECT_TRUE(r.first.write);
  EXPECT_TRUE(r.second.write);
  EXPECT_NE(r.first.thread.x, r.second.thread.x);
  const std::string line = to_string(r);
  EXPECT_NE(line.find("WAW"), std::string::npos) << line;
  EXPECT_NE(line.find("shared"), std::string::npos) << line;
}

TEST(Racecheck, SyncthreadsOrdersAccessesAcrossWarps) {
  Device dev;
  constexpr std::uint32_t kN = 128;
  SharedLayout layout;
  auto sbuf = layout.add<int>(kN);
  const auto stats = launch(
      dev, {1}, {kN}, layout.bytes(),
      [&](ThreadCtx& ctx) {
        const std::uint32_t i = ctx.threadIdx.x;
        ctx.sts(sbuf, i, static_cast<int>(i));
        ctx.syncthreads();
        (void)ctx.lds(sbuf, (i + 37) % kN);
      },
      rc_opts());
  EXPECT_EQ(stats.races, 0u);
  EXPECT_TRUE(stats.race_reports.empty());
}

TEST(Racecheck, MissingSyncthreadsIsAWarAcrossWarps) {
  // Threads 0..126 read word 127 before thread 127 writes it (lane order):
  // the write conflicts with the two most recent recorded readers.
  Device dev;
  constexpr std::uint32_t kN = 128;
  SharedLayout layout;
  auto sbuf = layout.add<int>(kN);
  const auto stats = launch(
      dev, {1}, {kN}, layout.bytes(),
      [&](ThreadCtx& ctx) {
        const std::uint32_t i = ctx.threadIdx.x;
        ctx.sts(sbuf, i, 1);
        (void)ctx.lds(sbuf, kN - 1);
      },
      rc_opts());
  EXPECT_EQ(stats.races, 2u);  // write vs both reader slots
  ASSERT_EQ(stats.race_reports.size(), 1u);
  const RaceReport& r = stats.race_reports[0];
  EXPECT_STREQ(r.kind(), "WAR");
  EXPECT_FALSE(r.first.write);
  EXPECT_TRUE(r.second.write);
  EXPECT_EQ(r.second.thread.x, kN - 1);
}

TEST(Racecheck, SyncwarpOrdersAccessesWithinOneWarp) {
  Device dev;
  SharedLayout layout;
  auto sbuf = layout.add<int>(32);
  const auto stats = launch(
      dev, {1}, {32}, layout.bytes(),
      [&](ThreadCtx& ctx) {
        const std::uint32_t i = ctx.threadIdx.x;
        ctx.sts(sbuf, i, static_cast<int>(i));
        ctx.syncwarp();
        (void)ctx.lds(sbuf, 31 - i);
      },
      rc_opts());
  EXPECT_EQ(stats.races, 0u);
}

TEST(Racecheck, MissingSyncwarpWithinOneWarpIsCaught) {
  Device dev;
  SharedLayout layout;
  auto sbuf = layout.add<int>(32);
  const auto stats = launch(
      dev, {1}, {32}, layout.bytes(),
      [&](ThreadCtx& ctx) {
        const std::uint32_t i = ctx.threadIdx.x;
        ctx.sts(sbuf, i, static_cast<int>(i));
        (void)ctx.lds(sbuf, 31 - i);
      },
      rc_opts());
  EXPECT_GT(stats.races, 0u);
  ASSERT_FALSE(stats.race_reports.empty());
  EXPECT_EQ(stats.race_reports[0].space, RaceReport::Space::kShared);
}

TEST(Racecheck, SyncwarpDoesNotOrderAccessesAcrossWarps) {
  // The §3.1.1 trap the detector exists for: a syncwarp in each warp, but
  // both warps still participate — cross-warp pairs stay unordered.
  Device dev;
  SharedLayout layout;
  auto sbuf = layout.add<int>(64);
  const auto stats = launch(
      dev, {1}, {64}, layout.bytes(),
      [&](ThreadCtx& ctx) {
        const std::uint32_t i = ctx.threadIdx.x;
        ctx.sts(sbuf, i, 7);
        ctx.syncwarp();
        (void)ctx.lds(sbuf, (i + 32) % 64);
      },
      rc_opts());
  EXPECT_GT(stats.races, 0u);
}

TEST(Racecheck, GlobalWordsAreTrackedPerBlock) {
  Device dev;
  auto buf = dev.alloc<int>(1);
  auto v = buf.view();
  const auto stats = launch(
      dev, {1}, {64}, 0,
      [&](ThreadCtx& ctx) { ctx.st(v, 0, static_cast<int>(ctx.threadIdx.x)); },
      rc_opts());
  EXPECT_EQ(stats.races, 63u);
  ASSERT_EQ(stats.race_reports.size(), 1u);
  EXPECT_EQ(stats.race_reports[0].space, RaceReport::Space::kGlobal);
  EXPECT_STREQ(stats.race_reports[0].kind(), "WAW");
}

TEST(Racecheck, StageAttributionWithoutProfiling) {
  // prof_scope names land in the reports even when profiling is off; the
  // stats' profile table itself must stay empty (off means off).
  Device dev;
  SharedLayout layout;
  auto sbuf = layout.add<int>(1);
  const auto stats = launch(
      dev, {1}, {64}, layout.bytes(),
      [&](ThreadCtx& ctx) {
        if (ctx.threadIdx.x == 0) {
          auto p = ctx.prof_scope("produce");
          ctx.sts(sbuf, 0, 42);
        }
        {
          auto c = ctx.prof_scope("consume");
          (void)ctx.lds(sbuf, 0);
        }
      },
      rc_opts());
  EXPECT_TRUE(stats.profile.empty());
  ASSERT_FALSE(stats.race_reports.empty());
  const RaceReport& r = stats.race_reports[0];
  EXPECT_STREQ(r.kind(), "RAW");
  EXPECT_EQ(r.first.stage, "produce");
  EXPECT_EQ(r.second.stage, "consume");
}

TEST(Racecheck, PerBlockReportCapKeepsExactCounter) {
  // 128 racy words x WAW = 128 distinct (word, kind) pairs, above the
  // 64-report block cap; the pair counter must stay exact regardless.
  Device dev;
  constexpr std::uint32_t kThreads = 256;
  SharedLayout layout;
  auto sbuf = layout.add<int>(kThreads / 2);
  const auto stats = launch(
      dev, {1}, {kThreads}, layout.bytes(),
      [&](ThreadCtx& ctx) {
        ctx.sts(sbuf, ctx.threadIdx.x / 2, 1);
      },
      rc_opts());
  EXPECT_EQ(stats.races, kThreads / 2);
  EXPECT_EQ(stats.race_reports.size(), RaceChecker::kMaxReportsPerBlock);
}

TEST(Racecheck, PerLaunchReportCapKeepsExactCounter) {
  // 8 blocks x 64 reports = 512 candidates; the launch keeps the first 256
  // (flattened block order) while summing every block's exact pair count.
  Device dev;
  constexpr std::uint32_t kThreads = 256;
  SharedLayout layout;
  auto sbuf = layout.add<int>(kThreads / 2);
  const auto stats = launch(
      dev, {8}, {kThreads}, layout.bytes(),
      [&](ThreadCtx& ctx) {
        ctx.sts(sbuf, ctx.threadIdx.x / 2, 1);
      },
      rc_opts());
  EXPECT_EQ(stats.races, 8u * (kThreads / 2));
  EXPECT_EQ(stats.race_reports.size(), RaceChecker::kMaxReportsPerLaunch);
}

TEST(Racecheck, ReportsAreDeterministicAcrossSimThreads) {
  Device dev;
  SharedLayout layout;
  auto sbuf = layout.add<int>(64);
  auto run = [&](std::uint32_t sim_threads) {
    SimOptions opts = rc_opts();
    opts.sim_threads = sim_threads;
    return launch(
        dev, {6}, {64}, layout.bytes(),
        [&](ThreadCtx& ctx) {
          const std::uint32_t i = ctx.threadIdx.x;
          ctx.sts(sbuf, i, 7);
          (void)ctx.lds(sbuf, (i + 32) % 64);  // racy cross-warp read
        },
        opts);
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  EXPECT_GT(serial.races, 0u);
  EXPECT_EQ(serial.races, parallel.races);
  ASSERT_EQ(serial.race_reports.size(), parallel.race_reports.size());
  for (std::size_t i = 0; i < serial.race_reports.size(); ++i) {
    const RaceReport& a = serial.race_reports[i];
    const RaceReport& b = parallel.race_reports[i];
    EXPECT_STREQ(a.kind(), b.kind());
    EXPECT_EQ(a.addr, b.addr);
    EXPECT_EQ(a.block.x, b.block.x);
    EXPECT_EQ(a.first.thread.x, b.first.thread.x);
    EXPECT_EQ(a.second.thread.x, b.second.thread.x);
    EXPECT_EQ(a.first.stage, b.first.stage);
    EXPECT_EQ(a.second.stage, b.second.stage);
  }
}

TEST(Racecheck, StatsAreIdenticalWithAndWithoutRacecheck) {
  // The detector observes; it must never perturb the cost model. Run a
  // well-synchronized kernel both ways and compare every counter.
  Device dev;
  constexpr std::uint32_t kN = 128;
  auto buf = dev.alloc<int>(8 * kN);
  auto v = buf.view();
  SharedLayout layout;
  auto sbuf = layout.add<int>(kN);
  auto kernel = [&](ThreadCtx& ctx) {
    const std::uint32_t i = ctx.threadIdx.x;
    ctx.sts(sbuf, i, static_cast<int>(i));
    ctx.syncthreads();
    const int x = ctx.lds(sbuf, (i + 1) % kN);
    ctx.syncwarp();
    ctx.st(v, ctx.blockIdx.x * kN + i, x);
  };
  SimOptions off;
  off.sim_threads = 1;
  const auto plain = launch(dev, {8}, {kN}, layout.bytes(), kernel, off);
  const auto checked = launch(dev, {8}, {kN}, layout.bytes(), kernel,
                              rc_opts());
  EXPECT_FALSE(plain.racecheck);
  EXPECT_TRUE(checked.racecheck);
  EXPECT_EQ(checked.races, 0u);
  EXPECT_EQ(plain.blocks, checked.blocks);
  EXPECT_EQ(plain.threads, checked.threads);
  EXPECT_EQ(plain.gmem_requests, checked.gmem_requests);
  EXPECT_EQ(plain.gmem_segments, checked.gmem_segments);
  EXPECT_EQ(plain.gmem_bytes, checked.gmem_bytes);
  EXPECT_EQ(plain.smem_requests, checked.smem_requests);
  EXPECT_EQ(plain.smem_cycles, checked.smem_cycles);
  EXPECT_EQ(plain.barriers, checked.barriers);
  EXPECT_EQ(plain.syncwarps, checked.syncwarps);
  EXPECT_DOUBLE_EQ(plain.alu_units, checked.alu_units);
  EXPECT_DOUBLE_EQ(plain.device_time_ns, checked.device_time_ns);
}

TEST(Racecheck, WideAccessesShadowEveryGranule) {
  // A double covers two 4-byte granules; racing on either half is caught.
  Device dev;
  SharedLayout layout;
  auto wide = layout.add<double>(1);
  const auto stats = launch(
      dev, {1}, {64}, layout.bytes(),
      [&](ThreadCtx& ctx) {
        ctx.sts(wide, 0, static_cast<double>(ctx.threadIdx.x));
      },
      rc_opts());
  EXPECT_EQ(stats.races, 2u * 63u);  // both granules conflict per pair
  ASSERT_EQ(stats.race_reports.size(), 2u);  // one per granule (WAW dedup)
  EXPECT_EQ(stats.race_reports[0].addr, 0u);
  EXPECT_EQ(stats.race_reports[1].addr, 4u);
}

}  // namespace
}  // namespace accred::gpusim
