// Warp contexts (gpusim/warp_ctx.hpp) against the lane engine. A warp
// kernel runs one fiber per warp (width 32) unless racecheck, profiling or
// a fault plan asks for lane order (width 1); each lane must issue the same
// events either way. Checked here: masked warp ops book exactly what the
// equivalent per-lane ThreadCtx ops book, and ops for no lane book nothing
// and read no index; a lane view refuses to synchronize at width 32;
// whole-warp barrier divergence reads the same at both widths, strict
// mode included; the ThreadCtx tree (a width-1 view) matches the warp
// tree; every Table 2 strategy gives the same stats and results with
// warp-form bindings as with per-lane bodies; an affine
// access out of bounds fails as the per-lane path does; affine_run takes
// only one contiguous run with a bounded step; and lazily built lane
// views carry the scheduler's thread coordinates.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "gpusim/launch.hpp"
#include "reduce/gang_reduce.hpp"
#include "reduce/rmp_reduce.hpp"
#include "reduce/tree.hpp"
#include "reduce/vector_reduce.hpp"
#include "reduce/worker_reduce.hpp"

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

/// `empty_ops` adds a load, store, shared load, shared store and touch for
/// no lane, at indices out of every range: they must issue nothing.
OpsRun run_warp_ops(const SimOptions& opts, bool empty_ops = false) {
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
        if (empty_ops) {
          Lanes<std::size_t> far;
          far.fill(std::numeric_limits<std::size_t>::max());
          Lanes<std::uint64_t> nowhere;
          nowhere.fill(std::numeric_limits<std::uint64_t>::max());
          wc.ld(0, iv, far, v);
          wc.st(0, ov, far, v);
          wc.lds(0, sbuf, far, sv);
          wc.sts(0, sbuf, far, sv);
          wc.touch_global(0, nowhere, 8);
        }
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
  EXPECT_GT(lane.stats.gmem_segments, lane.stats.gmem_requests);  // strided
  EXPECT_GT(lane.stats.smem_cycles, lane.stats.smem_requests);  // conflicts
  for (const bool empty_ops : {false, true}) {
    SCOPED_TRACE(empty_ops ? "with empty-mask ops" : "");
    OpsRun warp32;
    OpsRun warp1;
    ASSERT_NO_THROW(warp32 = run_warp_ops({}, empty_ops));
    ASSERT_NO_THROW(warp1 = run_warp_ops(width1(), empty_ops));
    EXPECT_EQ(warp32.width, 32u);
    EXPECT_EQ(warp1.width, 1u);
    EXPECT_EQ(counters(warp32.stats), counters(lane.stats));
    EXPECT_EQ(counters(warp1.stats), counters(lane.stats));
    EXPECT_EQ(warp32.out, lane.out);
    EXPECT_EQ(warp1.out, lane.out);
  }
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
  b.contrib = reduce::per_lane([iv](ThreadCtx& ctx, std::int64_t, std::int64_t,
                                    std::int64_t i) {
    ctx.syncthreads();
    return ctx.ld(iv, static_cast<std::size_t>(i));
  });
  b.sink = reduce::per_lane([](ThreadCtx&, std::int64_t, std::int64_t, int) {});
  EXPECT_THROW((void)reduce::run_vector_reduction<int>(
                   dev, {1, 2, 64}, acc::LaunchConfig{1, 2, 32},
                   acc::ReductionOp::kSum, b),
               std::logic_error);
}

// ---- Both binding forms, every strategy ------------------------------------

/// Extents that do not divide the 4 x 2 x 64 launch, so window tails leave
/// prefix masks, and a same-loop extent with a ragged last step.
constexpr reduce::Nest3 kNest{6, 5, 70};
constexpr std::int64_t kSameLoopExtent = 1000;
constexpr std::size_t kInput = 6 * 5 * 70;
const acc::LaunchConfig kCfg{4, 2, 64};

/// Input element of iteration (k, j, i); -1 (a level the strategy does not
/// iterate) reads as 0.
std::size_t input_at(std::int64_t k, std::int64_t j, std::int64_t i) {
  const auto z = [](std::int64_t x) { return x < 0 ? 0 : x; };
  return static_cast<std::size_t>((z(k) * kNest.nj + z(j)) * kNest.ni +
                                  z(i)) %
         kInput;
}
std::size_t sink_at(std::int64_t k, std::int64_t j) {
  return static_cast<std::size_t>(k * kNest.nj + (j < 0 ? 0 : j));
}

struct BindingRun {
  std::string stats;
  std::vector<double> out;
  std::vector<double> copy;
  double scalar = 0;
};

enum class Strategy {
  kVector, kWorker, kGang, kWorkerVector, kGangWorker, kGangWorkerVector,
  kSameLoop,
};

/// Run `s` with the loop bodies of the Table 2 runner (an affine
/// contribution, a parallel copy, a sink), bound in warp form or as the
/// same bodies per lane through reduce::per_lane.
BindingRun run_strategy(Strategy s, bool warp_form, const SimOptions& sim,
                        bool spill) {
  using reduce::LaneIndex;
  Device dev;
  auto in = dev.alloc<double>(kInput);
  auto copy = dev.alloc<double>(kInput);
  auto out = dev.alloc<double>(static_cast<std::size_t>(kNest.nk * kNest.nj));
  for (std::size_t e = 0; e < kInput; ++e) {
    in.host_span()[e] = static_cast<double>(e % 17) * 0.25 + 1.0;
  }
  const auto iv = in.view();
  const auto cv = copy.view();
  const auto ov = out.view();

  reduce::Bindings<double> b;
  if (warp_form) {
    b.contrib = [=](WarpCtx& wc, LaneMask m, const LaneIndex& k,
                    const LaneIndex& j, const LaneIndex& i,
                    Lanes<double>& val) {
      Lanes<std::size_t> idx{};
      gpusim::for_each_lane(
          m, [&](std::uint32_t l) { idx[l] = input_at(k[l], j[l], i[l]); });
      wc.ld(m, iv, idx, val);
    };
    b.parallel_work = [=](WarpCtx& wc, LaneMask m, const LaneIndex& k,
                          const LaneIndex& j, const LaneIndex& i) {
      Lanes<std::size_t> idx{};
      gpusim::for_each_lane(
          m, [&](std::uint32_t l) { idx[l] = input_at(k[l], j[l], i[l]); });
      Lanes<double> v{};
      wc.ld(m, iv, idx, v);
      wc.st(m, cv, idx, v);
    };
    b.sink = [=](WarpCtx& wc, LaneMask m, const LaneIndex& k,
                 const LaneIndex& j, const Lanes<double>& r) {
      Lanes<std::size_t> idx{};
      gpusim::for_each_lane(
          m, [&](std::uint32_t l) { idx[l] = sink_at(k[l], j[l]); });
      wc.st(m, ov, idx, r);
    };
  } else {
    b.contrib = reduce::per_lane([=](ThreadCtx& ctx, std::int64_t k,
                                     std::int64_t j, std::int64_t i) {
      return ctx.ld(iv, input_at(k, j, i));
    });
    b.parallel_work = reduce::per_lane([=](ThreadCtx& ctx, std::int64_t k,
                                           std::int64_t j, std::int64_t i) {
      ctx.st(cv, input_at(k, j, i), ctx.ld(iv, input_at(k, j, i)));
    });
    b.sink = reduce::per_lane([=](ThreadCtx& ctx, std::int64_t k,
                                  std::int64_t j, double r) {
      ctx.st(ov, sink_at(k, j), r);
    });
  }
  b.instance_init = [](std::int64_t k, std::int64_t j) {
    return 0.5 * static_cast<double>(k + j);
  };
  b.host_init = 3.0;
  b.host_init_set = true;

  reduce::StrategyConfig sc;
  sc.sim = sim;
  sc.spill_private = spill;
  const acc::ReductionOp op = acc::ReductionOp::kSum;
  reduce::ReduceResult<double> res;
  switch (s) {
    case Strategy::kVector:
      res = reduce::run_vector_reduction<double>(dev, kNest, kCfg, op, b, sc);
      break;
    case Strategy::kWorker:
      res = reduce::run_worker_reduction<double>(dev, kNest, kCfg, op, b, sc);
      break;
    case Strategy::kGang:
      res = reduce::run_gang_reduction<double>(dev, kNest, kCfg, op, b, sc);
      break;
    case Strategy::kWorkerVector:
      res = reduce::run_worker_vector_reduction<double>(dev, kNest, kCfg, op,
                                                        b, sc);
      break;
    case Strategy::kGangWorker:
      res = reduce::run_gang_worker_reduction<double>(dev, kNest, kCfg, op, b,
                                                      sc);
      break;
    case Strategy::kGangWorkerVector:
      res = reduce::run_gang_worker_vector_reduction<double>(dev, kNest, kCfg,
                                                             op, b, sc);
      break;
    case Strategy::kSameLoop:
      res = reduce::run_same_loop_reduction<double>(dev, kSameLoopExtent,
                                                    kCfg, op, b, sc);
      break;
  }
  BindingRun r;
  r.stats = counters(res.stats);
  r.out.assign(out.host_span().begin(), out.host_span().end());
  r.copy.assign(copy.host_span().begin(), copy.host_span().end());
  r.scalar = res.scalar.value_or(-1.0);
  return r;
}

TEST(WarpCtx, BindingFormsAgreeForEveryStrategy) {
  const std::pair<Strategy, const char*> strategies[] = {
      {Strategy::kVector, "vector"},
      {Strategy::kWorker, "worker"},
      {Strategy::kGang, "gang"},
      {Strategy::kWorkerVector, "worker-vector"},
      {Strategy::kGangWorker, "gang-worker"},
      {Strategy::kGangWorkerVector, "gang-worker-vector"},
      {Strategy::kSameLoop, "same loop"},
  };
  for (const auto& [s, name] : strategies) {
    for (const bool spill : {false, true}) {
      SCOPED_TRACE(std::string(name) + (spill ? ", spilled" : ""));
      const BindingRun warp32 = run_strategy(s, true, {}, spill);
      const BindingRun lane32 = run_strategy(s, false, {}, spill);
      const BindingRun warp1 = run_strategy(s, true, width1(), spill);
      const BindingRun lane1 = run_strategy(s, false, width1(), spill);
      EXPECT_EQ(warp32.stats, lane32.stats);
      EXPECT_EQ(warp1.stats, lane1.stats);
      EXPECT_EQ(warp32.stats, warp1.stats);
      for (const BindingRun* r : {&lane32, &warp1, &lane1}) {
        EXPECT_EQ(r->out, warp32.out);
        EXPECT_EQ(r->copy, warp32.copy);
        EXPECT_EQ(r->scalar, warp32.scalar);
      }
    }
  }
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

// ---- Affine accesses out of bounds ----------------------------------------

constexpr std::size_t kOobElems = 100;

/// The std::out_of_range text of one warp of 32 lanes loading (or storing)
/// element idx[l] of a kOobElems buffer for each lane of `m`.
std::string oob_message(LaneMask m, const Lanes<std::int64_t>& idx,
                        bool store, const SimOptions& opts) {
  Device dev;
  auto buf = dev.alloc<float>(kOobElems);
  const auto bv = buf.view();
  try {
    (void)gpusim::launch(
        dev, {1}, {32}, 0,
        [&](WarpCtx& wc) {
          // Context lane l is lane linear_tid(l) of the warp (l at width
          // 32, the running lane at width 1).
          LaneMask cm = 0;
          Lanes<std::int64_t> ci{};
          for (std::uint32_t l = 0; l < wc.width(); ++l) {
            const std::uint32_t w = wc.linear_tid(l);
            cm |= (m >> w & 1U) << l;
            ci[l] = idx[w];
          }
          Lanes<float> v{};
          if (store) {
            wc.st(cm, bv, ci, v);
          } else {
            wc.ld(cm, bv, ci, v);
          }
        },
        opts);
  } catch (const std::out_of_range& e) {
    return e.what();
  }
  return "no error";
}

TEST(WarpCtx, AffineAccessOutOfBoundsFailsLikeLanes) {
  // Lane l at first + l·step over the run of `m`; `bad` is the first lane
  // out of bounds in lane order, which the per-lane path reports.
  struct Case {
    const char* name;
    LaneMask m;
    std::int64_t first;
    std::int64_t step;
    std::uint32_t bad;
  };
  constexpr auto n = static_cast<std::int64_t>(kOobElems);
  const Case cases[] = {
      {"last lane", gpusim::kAllLanes, n - 31, 1, 31},
      {"last three lanes", gpusim::kAllLanes, n - 29, 1, 29},
      {"stride 2, last lane", gpusim::kAllLanes, n - 62, 2, 31},
      {"window-tail prefix", 0xFFFFF, n - 19, 1, 19},
      {"run past lane 0", 0xFFFF0000, n - 31, 1, 31},
      {"below zero", gpusim::kAllLanes, -1, 1, 0},
      {"broadcast", gpusim::kAllLanes, n, 0, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Lanes<std::int64_t> idx{};
    for (std::uint32_t l = 0; l < 32; ++l) idx[l] = c.first + c.step * l;
    // Lanes outside the mask hold indices the op must never look at.
    for (std::uint32_t l = 0; l < 32; ++l) {
      if ((c.m >> l & 1U) == 0) {
        idx[l] = std::numeric_limits<std::int64_t>::max();
      }
    }
    for (const bool store : {false, true}) {
      const std::string expect =
          std::string(store ? "global store" : "global load") +
          " out of bounds: index " +
          std::to_string(static_cast<std::size_t>(idx[c.bad])) +
          " in buffer of " + std::to_string(kOobElems) + " elements";
      EXPECT_EQ(oob_message(c.m, idx, store, {}), expect);
      // The lane engine runs each lane's ThreadCtx op in lane order.
      EXPECT_EQ(oob_message(c.m, idx, store, width1()), expect);
    }
  }
}

TEST(WarpCtx, AffineRunNeedsOneContiguousRunAndABoundedStep) {
  Lanes<std::int64_t> idx{};
  for (std::uint32_t l = 0; l < 32; ++l) idx[l] = 100 + 4 * l;
  gpusim::AffineRun r;
  ASSERT_TRUE(gpusim::affine_run(gpusim::kAllLanes, idx, r, 4));
  EXPECT_EQ(r.first, 100U);
  EXPECT_EQ(r.step, 4U);
  EXPECT_EQ(r.count, 32U);
  EXPECT_EQ(r.last(), 224U);
  EXPECT_FALSE(gpusim::affine_run(gpusim::kAllLanes, idx, r, 3));
  ASSERT_TRUE(gpusim::affine_run(0xFF00, idx, r, 4));  // lanes 8..15
  EXPECT_EQ(r.first, 132U);
  EXPECT_EQ(r.count, 8U);
  EXPECT_FALSE(gpusim::affine_run(0xF0F0, idx, r));  // a gap
  EXPECT_FALSE(gpusim::affine_run(0, idx, r));
  ASSERT_TRUE(gpusim::affine_run(1U << 5, idx, r, 0));  // one lane: step 0
  EXPECT_EQ(r.step, 0U);

  // Off the run at the last lane only.
  idx[31] += 1;
  EXPECT_FALSE(gpusim::affine_run(gpusim::kAllLanes, idx, r));
  EXPECT_TRUE(gpusim::affine_run(gpusim::kAllLanes >> 1, idx, r));

  // A negative step is 2^64 − 4 modulo 2^64: inside no bound but the
  // default one.
  for (std::uint32_t l = 0; l < 32; ++l) idx[l] = 100 - 4 * std::int64_t{l};
  ASSERT_TRUE(gpusim::affine_run(gpusim::kAllLanes, idx, r));
  EXPECT_EQ(r.step, ~std::uint64_t{0} - 3);
  EXPECT_FALSE(gpusim::affine_run(gpusim::kAllLanes, idx, r, 128));
}

// ---- Lazily built lane views -----------------------------------------------

/// What one lane sees of its own coordinates.
struct LaneSeen {
  gpusim::Dim3 thread, block, block_dim, grid_dim;
  std::uint32_t tid = 0, warp = 0, lane = 0;
  friend bool operator==(const LaneSeen&, const LaneSeen&) = default;
};
LaneSeen seen(const ThreadCtx& c) {
  return {c.threadIdx, c.blockIdx, c.blockDim, c.gridDim,
          c.linear_tid(), c.warp(), c.lane()};
}

TEST(WarpCtx, LazyLaneViewsMatchTheThreadTable) {
  const gpusim::Dim3 grid{2, 3};
  for (const gpusim::Dim3 block : {gpusim::Dim3{64, 4}, gpusim::Dim3{128, 8}}) {
    SCOPED_TRACE(std::to_string(block.x) + "x" + std::to_string(block.y));
    const auto nthreads = static_cast<std::uint32_t>(block.count());
    const std::size_t total = grid.count() * nthreads;
    const auto at = [&](gpusim::Dim3 b, std::uint32_t t) {
      return (b.x + std::size_t{b.y} * grid.x) * nthreads + t;
    };
    Device dev;
    // The scheduler's table, as ThreadCtx kernels see it.
    std::vector<LaneSeen> table(total);
    (void)gpusim::launch(dev, grid, block, 0, [&](ThreadCtx& ctx) {
      table[at(ctx.blockIdx, ctx.linear_tid())] = seen(ctx);
    });
    for (const bool width32 : {true, false}) {
      SCOPED_TRACE(width32 ? "width 32" : "width 1");
      std::vector<LaneSeen> view(total);
      std::vector<LaneSeen> ctx(total);
      std::atomic<bool> wrong_width{false};
      std::atomic<bool> rebuilt{false};
      (void)gpusim::launch(
          dev, grid, block, 0,
          [&](WarpCtx& wc) {
            if (wc.width() != (width32 ? 32u : 1u)) wrong_width = true;
            // Highest lane first, so views are built out of lane order.
            for (std::uint32_t l = wc.width(); l-- > 0;) {
              ThreadCtx& v = wc.lane(l);
              if (&wc.lane(l) != &v) rebuilt = true;
              const std::uint32_t t = wc.linear_tid(l);
              view[at(wc.blockIdx, t)] = seen(v);
              ctx[at(wc.blockIdx, t)] =
                  LaneSeen{wc.threadIdx(l), wc.blockIdx, wc.blockDim,
                           wc.gridDim,      t,           t / 32,
                           t % 32};
            }
          },
          width32 ? SimOptions{} : width1());
      EXPECT_FALSE(wrong_width.load());
      EXPECT_FALSE(rebuilt.load());
      for (std::size_t i = 0; i < total; ++i) {
        ASSERT_EQ(view[i], table[i]) << "thread " << i;
        ASSERT_EQ(ctx[i], table[i]) << "thread " << i;
      }
    }
  }
}

}  // namespace
}  // namespace accred
