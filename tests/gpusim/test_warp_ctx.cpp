// Warp contexts (gpusim/warp_ctx.hpp) against the lane engine. A warp
// kernel runs one fiber per warp (width 32) unless racecheck, profiling or
// a fault plan asks for lane order (width 1); each lane must issue the same
// events either way. Checked here: masked warp ops book exactly what the
// equivalent per-lane ThreadCtx ops book; a lane view refuses to
// synchronize at width 32; whole-warp barrier divergence reads the same at
// both widths, strict mode included; and the ThreadCtx tree (a width-1
// view) matches the warp tree.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "gpusim/launch.hpp"
#include "reduce/tree.hpp"
#include "reduce/vector_reduce.hpp"

namespace accred {
namespace {

using gpusim::Device;
using gpusim::LaneMask;
using gpusim::Lanes;
using gpusim::LaunchStats;
using gpusim::SimOptions;
using gpusim::ThreadCtx;
using gpusim::WarpCtx;

/// Every modeled counter of a launch, doubles as hexfloat, so equal
/// strings mean bit-identical stats.
std::string counters(const LaunchStats& s) {
  std::ostringstream os;
  os << std::hexfloat << s.blocks << '|' << s.threads << '|'
     << s.gmem_requests << '|' << s.gmem_segments << '|' << s.gmem_bytes
     << '|' << s.smem_requests << '|' << s.smem_cycles << '|' << s.barriers
     << '|' << s.syncwarps << '|' << s.alu_units << '|' << s.device_time_ns
     << '|' << s.barrier_exit_divergence << '|' << s.barrier_site_mismatch;
  return os.str();
}

/// Racecheck never changes the stats, but it forces a warp kernel onto the
/// lane engine (width 1).
SimOptions width1() {
  SimOptions o;
  o.racecheck = true;
  return o;
}

// ---- Masked warp ops vs per-lane ops --------------------------------------

constexpr std::uint32_t kBlockX = 64;  // rows are whole warps: width 32
constexpr std::uint32_t kBlockY = 3;
constexpr std::uint32_t kThreads = kBlockX * kBlockY;
constexpr std::uint32_t kBlocks = 3;
constexpr std::size_t kElems = kBlocks * kThreads * 3 + 8;

struct OpsRun {
  LaunchStats stats;
  std::vector<float> out;
  std::uint32_t width = 0;  ///< context width the kernel ran at
};

/// The per-lane program both kernel forms run, lane `t` of block `b`:
/// strided global loads and stores under a per-warp prefix (lanes whose
/// warp-lane is below 20), a bank-conflicted shared round trip across a
/// barrier, spill-style touches and fractional ALU charges.
bool loads(std::uint32_t t) { return t % 32 < 20; }
std::size_t gidx(std::uint32_t b, std::uint32_t t) {
  return (static_cast<std::size_t>(b) * kThreads + t) * 3;
}
std::uint32_t sidx(std::uint32_t t) { return (t * 2) % kThreads; }
std::uint64_t spill(std::uint32_t b, std::uint32_t t) {
  return (1ULL << 40) + (static_cast<std::uint64_t>(b) * kThreads + t) * 8;
}

OpsRun run_lane_ops() {
  Device dev;
  auto in = dev.alloc<float>(kElems);
  auto out = dev.alloc<float>(kElems);
  for (std::size_t i = 0; i < kElems; ++i) {
    in.host_span()[i] = static_cast<float>(i % 97) * 0.5F;
  }
  gpusim::SharedLayout layout;
  auto sbuf = layout.add<float>(kThreads);
  const auto iv = in.view();
  const auto ov = out.view();
  OpsRun r;
  r.stats = gpusim::launch(
      dev, {kBlocks}, {kBlockX, kBlockY}, layout.bytes(),
      [=](ThreadCtx& ctx) {
        const std::uint32_t t = ctx.linear_tid();
        const std::uint32_t b = ctx.blockIdx.x;
        ctx.alu(2);
        float v = 1.0F;
        if (loads(t)) {
          v = ctx.ld(iv, gidx(b, t)) * 2.0F;
          ctx.st(ov, gidx(b, t) + 1, v);
        }
        ctx.sts(sbuf, sidx(t), v + static_cast<float>(t));
        ctx.touch_global(spill(b, t), 8);
        ctx.syncthreads();
        ctx.alu(0.5);
        const float w = ctx.lds(sbuf, (sidx(t) + 2) % kThreads);
        if (loads(t)) ctx.alu(1.25);
        ctx.st(ov, gidx(b, t) + 2, w);
      },
      {});
  r.out.assign(out.host_span().begin(), out.host_span().end());
  return r;
}

OpsRun run_warp_ops(const SimOptions& opts) {
  Device dev;
  auto in = dev.alloc<float>(kElems);
  auto out = dev.alloc<float>(kElems);
  for (std::size_t i = 0; i < kElems; ++i) {
    in.host_span()[i] = static_cast<float>(i % 97) * 0.5F;
  }
  gpusim::SharedLayout layout;
  auto sbuf = layout.add<float>(kThreads);
  const auto iv = in.view();
  const auto ov = out.view();
  OpsRun r;
  std::atomic<std::uint32_t> width{0};
  r.stats = gpusim::launch(
      dev, {kBlocks}, {kBlockX, kBlockY}, layout.bytes(),
      [=, &width](WarpCtx& wc) {
        width.store(wc.width());  // every warp here is full
        const LaneMask all = wc.lanes();
        const std::uint32_t b = wc.blockIdx.x;
        const LaneMask m = gpusim::lanes_where(
            all, [&](std::uint32_t l) { return loads(wc.linear_tid(l)); });
        Lanes<std::size_t> g{};
        Lanes<std::size_t> g1{};
        Lanes<std::size_t> g2{};
        Lanes<std::uint32_t> s{};
        Lanes<std::uint32_t> s2{};
        Lanes<std::uint64_t> sp{};
        for (std::uint32_t l = 0; l < wc.width(); ++l) {
          const std::uint32_t t = wc.linear_tid(l);
          g[l] = gidx(b, t);
          g1[l] = g[l] + 1;
          g2[l] = g[l] + 2;
          s[l] = sidx(t);
          s2[l] = (sidx(t) + 2) % kThreads;
          sp[l] = spill(b, t);
        }
        wc.alu(all, 2);
        Lanes<float> v;
        v.fill(1.0F);
        wc.ld(m, iv, g, v);
        gpusim::for_each_lane(m, [&](std::uint32_t l) { v[l] *= 2.0F; });
        wc.st(m, ov, g1, v);
        Lanes<float> sv{};
        for (std::uint32_t l = 0; l < wc.width(); ++l) {
          sv[l] = v[l] + static_cast<float>(wc.linear_tid(l));
        }
        wc.sts(all, sbuf, s, sv);
        wc.touch_global(all, sp, 8);
        wc.syncthreads();
        wc.alu(all, 0.5);
        Lanes<float> w{};
        wc.lds(all, sbuf, s2, w);
        wc.alu(m, 1.25);
        wc.st(all, ov, g2, w);
      },
      opts);
  r.out.assign(out.host_span().begin(), out.host_span().end());
  r.width = width.load();
  return r;
}

TEST(WarpCtx, MaskedOpsBookLikeLaneOps) {
  const OpsRun lane = run_lane_ops();
  const OpsRun warp32 = run_warp_ops({});
  const OpsRun warp1 = run_warp_ops(width1());
  EXPECT_EQ(warp32.width, 32u);
  EXPECT_EQ(warp1.width, 1u);
  EXPECT_GT(lane.stats.gmem_segments, lane.stats.gmem_requests);  // strided
  EXPECT_GT(lane.stats.smem_cycles, lane.stats.smem_requests);  // conflicts
  EXPECT_EQ(counters(warp32.stats), counters(lane.stats));
  EXPECT_EQ(counters(warp1.stats), counters(lane.stats));
  EXPECT_EQ(warp32.out, lane.out);
  EXPECT_EQ(warp1.out, lane.out);
}

// ---- Lane views must not synchronize at width 32 ---------------------------

TEST(WarpCtx, LaneViewBarrierIsRefusedAtWidth32) {
  Device dev;
  for (const bool warp_barrier : {true, false}) {
    try {
      (void)gpusim::launch(dev, {2}, {64}, 0, [&](WarpCtx& wc) {
        if (warp_barrier) {
          wc.lane(3).syncthreads();
        } else {
          wc.lane(3).syncwarp();
        }
      });
      ADD_FAILURE() << "a lane view synchronized at width 32";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("lane view"), std::string::npos)
          << e.what();
    }
  }
}

TEST(WarpCtx, BindingThatSynchronizesIsRefused) {
  // A strategy's per-lane callback runs through a lane view, so a binding
  // that calls syncthreads fails with the same clear error.
  Device dev;
  auto in = dev.alloc<int>(64);
  const auto iv = in.view();
  reduce::Bindings<int> b;
  b.contrib = [iv](ThreadCtx& ctx, std::int64_t, std::int64_t,
                   std::int64_t i) {
    ctx.syncthreads();
    return ctx.ld(iv, static_cast<std::size_t>(i));
  };
  b.sink = [](ThreadCtx&, std::int64_t, std::int64_t, int) {};
  EXPECT_THROW((void)reduce::run_vector_reduction<int>(
                   dev, {1, 2, 64}, acc::LaunchConfig{1, 2, 32},
                   acc::ReductionOp::kSum, b),
               std::logic_error);
}

// ---- Whole-warp barrier divergence ----------------------------------------

/// Warp 1 leaves after the first barrier; the other warps meet twice more,
/// at a different call site.
void divergent_kernel(WarpCtx& wc) {
  wc.syncthreads();
  if (wc.linear_tid(0) / 32 == 1) return;
  wc.alu(wc.lanes(), 1);
  wc.syncthreads();
  wc.syncthreads();
}

TEST(WarpCtx, BarrierDivergenceMatchesWidthOne) {
  Device dev;
  const LaunchStats w32 =
      gpusim::launch(dev, {2}, {32, 4}, 0, divergent_kernel);
  const LaunchStats w1 =
      gpusim::launch(dev, {2}, {32, 4}, 0, divergent_kernel, width1());
  EXPECT_EQ(w32.barrier_exit_divergence, 2u);  // once per block
  EXPECT_EQ(counters(w32), counters(w1));

  // Strict mode turns it into the same structured error at both widths.
  SimOptions strict;
  strict.strict_barriers = true;
  SimOptions strict1 = width1();
  strict1.strict_barriers = true;
  std::vector<gpusim::LaunchErrorInfo> errors;
  for (const SimOptions& o : {strict, strict1}) {
    try {
      (void)gpusim::launch(dev, {2}, {32, 4}, 0, divergent_kernel, o);
      ADD_FAILURE() << "strict barriers let exit divergence through";
    } catch (const gpusim::LaunchError& e) {
      errors.push_back(e.info());
    }
  }
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0].code, gpusim::LaunchErrorCode::kBarrierDivergence);
  EXPECT_EQ(errors[0].code, errors[1].code);
  EXPECT_EQ(errors[0].message, errors[1].message);
  EXPECT_EQ(errors[0].block, errors[1].block);
  EXPECT_EQ(errors[0].warp, errors[1].warp);
  EXPECT_EQ(errors[0].barrier_seq, errors[1].barrier_seq);
  EXPECT_EQ(errors[0].step, errors[1].step);
}

// ---- One tree: the lane overloads are the warp tree ------------------------

struct TreeShape {
  const char* name;
  gpusim::Dim3 block;
  std::uint32_t count;
  std::uint32_t stride;  ///< element stride; rows are transposed when > 1
  bool global = false;
  reduce::TreeOptions opt{};
};

/// Row base, participant index and staging slot of thread (x, y).
struct TreeLane {
  std::uint32_t row;
  std::uint32_t local;
  std::uint32_t slot;
};
TreeLane tree_lane(const TreeShape& s, gpusim::Dim3 t) {
  if (s.stride > 1) return {t.y, t.x, t.y + t.x * s.stride};
  return {t.y * s.block.x, t.x, t.y * s.block.x + t.x};
}

std::pair<LaunchStats, std::vector<double>> run_tree(const TreeShape& s,
                                                     bool warp) {
  Device dev;
  const auto nthreads = static_cast<std::uint32_t>(s.block.count());
  constexpr std::uint32_t kGrid = 2;
  auto out = dev.alloc<double>(std::size_t{kGrid} * nthreads);
  auto stage = dev.alloc<double>(std::size_t{kGrid} * nthreads);
  gpusim::SharedLayout layout;
  auto sbuf = layout.add<double>(nthreads);
  const auto ov = out.view();
  const auto gv = stage.view();
  const acc::RuntimeOp<double> op{acc::ReductionOp::kSum};
  const auto value = [](std::uint32_t b, std::uint32_t t) {
    return static_cast<double>((b * 131 + t * 7) % 23) + 0.25;
  };
  const auto gbase = [&](std::uint32_t b, const TreeLane& tl) {
    return static_cast<std::size_t>(b) * nthreads + tl.row;
  };
  LaunchStats stats;
  if (warp) {
    stats = gpusim::launch(
        dev, {kGrid}, s.block, layout.bytes(),
        [&](WarpCtx& wc) {
          const std::uint32_t b = wc.blockIdx.x;
          Lanes<std::uint32_t> row{}, local{}, slot{};
          Lanes<std::size_t> base{}, gslot{}, oslot{};
          Lanes<double> v{};
          for (std::uint32_t l = 0; l < wc.width(); ++l) {
            const TreeLane tl = tree_lane(s, wc.threadIdx(l));
            row[l] = tl.row;
            local[l] = tl.local;
            slot[l] = tl.slot;
            base[l] = gbase(b, tl);
            gslot[l] = base[l] + tl.local;
            oslot[l] = static_cast<std::size_t>(b) * nthreads +
                       wc.linear_tid(l);
            v[l] = value(b, wc.linear_tid(l));
          }
          if (s.global) {
            wc.st(wc.lanes(), gv, gslot, v);
            reduce::block_tree_reduce_global(wc, gv, base, s.count, local, op,
                                             s.opt);
            wc.ld(wc.lanes(), gv, base, v);
          } else {
            wc.sts(wc.lanes(), sbuf, slot, v);
            reduce::block_tree_reduce(wc, sbuf, row, s.count, s.stride, local,
                                      op, s.opt);
            wc.lds(wc.lanes(), sbuf, row, v);
          }
          wc.st(wc.lanes(), ov, oslot, v);
        },
        {});
  } else {
    stats = gpusim::launch(
        dev, {kGrid}, s.block, layout.bytes(),
        [&](ThreadCtx& ctx) {
          const std::uint32_t b = ctx.blockIdx.x;
          const TreeLane tl = tree_lane(s, ctx.threadIdx);
          const std::size_t base = gbase(b, tl);
          double v = value(b, ctx.linear_tid());
          if (s.global) {
            ctx.st(gv, base + tl.local, v);
            reduce::block_tree_reduce_global(ctx, gv, base, s.count, tl.local,
                                             op, s.opt);
            v = ctx.ld(gv, base);
          } else {
            ctx.sts(sbuf, tl.slot, v);
            reduce::block_tree_reduce(ctx, sbuf, tl.row, s.count, s.stride,
                                      tl.local, op, s.opt);
            v = ctx.lds(sbuf, tl.row);
          }
          ctx.st(ov, static_cast<std::size_t>(b) * nthreads +
                         ctx.linear_tid(),
                 v);
        },
        {});
  }
  return {stats, std::vector<double>(out.host_span().begin(),
                                     out.host_span().end())};
}

TEST(WarpCtx, LaneTreeMatchesWarpTree) {
  reduce::TreeOptions interleaved;
  interleaved.addr = reduce::AddrMode::kInterleavedThreads;
  interleaved.full_unroll = false;
  const TreeShape shapes[] = {
      {"one row, non-power-of-2", {96, 1, 1}, 96, 1},
      {"rows with warp tails", {64, 4, 1}, 64, 1},
      {"transposed rows", {32, 8, 1}, 32, 8},
      {"interleaved, rolled", {128, 2, 1}, 100, 1, false, interleaved},
      {"global rows", {64, 2, 1}, 64, 1, true},
  };
  for (const TreeShape& s : shapes) {
    SCOPED_TRACE(s.name);
    const auto lane = run_tree(s, /*warp=*/false);
    const auto warp = run_tree(s, /*warp=*/true);
    EXPECT_GT(lane.first.barriers, 0u);
    EXPECT_EQ(counters(warp.first), counters(lane.first));
    EXPECT_EQ(warp.second, lane.second);
  }
}

}  // namespace
}  // namespace accred
