// Determinism oracle for the block scheduler's chained lane protocol
// (FastChain, DESIGN.md §12). The kClassic* digests below were captured
// from the deleted per-lane resume()/yield() driver at sim_threads 1, and
// kPerLaneMixed from the chained pass while it still armed one fiber per
// lane per block. The chain with lazy fiber binding must reproduce their
// LaunchStats, per-stage profiles, racecheck reports, fault-injection
// events and kernel outputs bit for bit at sim_threads 1 and 4 — on a
// clean divergent tree, under a two-fault campaign, for a barrier-deletion
// mutant (every lane parks in all three), and for a launch that mixes
// lanes that never park with lanes that do.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "gpusim/launch.hpp"
#include "obs/json.hpp"
#include "obs/profiler.hpp"
#include "reduce/tree.hpp"

namespace accred {
namespace {

using gpusim::Device;
using gpusim::LaunchStats;
using gpusim::SimOptions;
using gpusim::ThreadCtx;

/// Everything the determinism contract gates, folded into one comparable
/// string. Doubles print as hexfloat so "identical" means bit-identical.
std::string fingerprint(const LaunchStats& s) {
  std::ostringstream os;
  os << std::hexfloat;
  os << s.blocks << '|' << s.threads << '|' << s.gmem_requests << '|'
     << s.gmem_segments << '|' << s.gmem_bytes << '|' << s.smem_requests
     << '|' << s.smem_cycles << '|' << s.barriers << '|' << s.syncwarps
     << '|' << s.alu_units << '|' << s.device_time_ns << '|'
     << s.barrier_exit_divergence << '|' << s.barrier_site_mismatch << '\n';
  os << obs::profile_to_json(s.profile).dump() << '\n';
  os << "races=" << s.races << '\n';
  for (const gpusim::RaceReport& r : s.race_reports) {
    os << to_string(r) << '\n';
  }
  os << "faults_armed=" << (s.faults_armed ? 1 : 0) << '\n';
  for (const gpusim::FaultEvent& e : s.fault_events) {
    os << to_string(e) << '\n';
  }
  return os.str();
}

/// 64-bit FNV-1a over the fingerprint text, then the kernel's output bytes.
std::uint64_t digest(const LaunchStats& s, const std::vector<float>& out) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  const std::string fp = fingerprint(s);
  mix(fp.data(), fp.size());
  mix(out.data(), out.size() * sizeof(float));
  return h;
}

// Captured from the classic driver (SimOptions::fastpath = false,
// sim_threads = 1) before it was deleted.
constexpr std::uint64_t kClassicClean = 0x0dfe7eba824a6795ULL;
constexpr std::uint64_t kClassicCampaign = 0xeb6eced867cab227ULL;
constexpr std::uint64_t kClassicMutant = 0x52edc7805bd62f20ULL;
// Captured from the per-lane fiber binding (sim_threads = 1) before lanes
// that never suspend started sharing one fiber.
constexpr std::uint64_t kPerLaneMixed = 0x502cd39d6f920ebcULL;

/// Divergent tree reduction exercising every gated output: a grid-stride
/// load loop with lane-dependent extra work (intra-warp divergence), shared
/// staging, the warp-synchronous tree tail (syncthreads + syncwarp), and
/// prof_scope stages for the profiler / racecheck / fault attribution.
struct DivergentTreeFixture {
  static constexpr std::int64_t kBlocks = 48;
  static constexpr std::int64_t kThreads = 128;
  static constexpr std::int64_t kN = 1 << 15;

  Device dev;
  gpusim::DeviceBuffer<float> data{dev.alloc<float>(kN)};
  gpusim::DeviceBuffer<float> out{
      dev.alloc<float>(static_cast<std::size_t>(kBlocks))};
  gpusim::SharedLayout layout;
  gpusim::SharedView<float> sbuf{
      layout.add<float>(static_cast<std::size_t>(kThreads))};
  acc::RuntimeOp<float> rop{acc::ReductionOp::kSum};

  DivergentTreeFixture() {
    auto host = data.host_span();
    for (std::int64_t i = 0; i < kN; ++i) {
      host[static_cast<std::size_t>(i)] =
          0.125F * static_cast<float>(i % 193) - 7.0F;
    }
  }

  LaunchStats run(std::uint32_t sim_threads, const std::string& faults = {}) {
    out.fill(0.0F);
    auto dv = data.view();
    auto ov = out.view();
    auto sb = sbuf;
    auto op = rop;
    SimOptions opts;
    opts.sim_threads = sim_threads;
    opts.profile = true;
    opts.racecheck = true;
    opts.faults = faults;
    return gpusim::launch(
        dev, {static_cast<std::uint32_t>(kBlocks)},
        {static_cast<std::uint32_t>(kThreads)}, layout.bytes(),
        [=](ThreadCtx& ctx) {
          float priv = 0;
          {
            auto s = ctx.prof_scope("load");
            for (std::int64_t i =
                     ctx.blockIdx.x * kThreads + ctx.threadIdx.x;
                 i < kN; i += kBlocks * kThreads) {
              priv += ctx.ld(dv, static_cast<std::size_t>(i));
            }
            // Lane-dependent divergence: a third of each warp does extra
            // reads and ALU work, so a chained pass crosses reconvergence
            // points with lanes in different states.
            if (ctx.threadIdx.x % 3 == 0) {
              priv += ctx.ld(dv, ctx.threadIdx.x);
              ctx.alu(2.0);
            }
          }
          {
            auto s = ctx.prof_scope("stage");
            ctx.sts(sb, ctx.threadIdx.x, priv);
          }
          reduce::block_tree_reduce(ctx, sb, 0, kThreads, 1, ctx.threadIdx.x,
                                    op);
          if (ctx.linear_tid() == 0) {
            ctx.st(ov, ctx.blockIdx.x, ctx.lds(sb, 0));
          }
        },
        opts);
  }

  std::vector<float> partials() const {
    return {out.host_span().begin(), out.host_span().end()};
  }
};

/// One launch, three kinds of blocks (blockIdx.x % 3):
///   0 — every lane returns before any barrier, so a pass runs all 32
///       lanes of a warp back to back;
///   1 — lanes with lane % 4 == 1 return after staging while their warp
///       neighbours park at syncwarp, so one pass interleaves lanes that
///       finish with lanes that park, and the next pass resumes parked
///       lanes whose predecessors finished;
///   2 — the divergent block_tree_reduce, where every lane parks.
struct MixedLanesFixture {
  static constexpr std::uint32_t kBlocks = 24;
  static constexpr std::uint32_t kThreads = 128;
  static constexpr std::size_t kN = std::size_t{1} << 14;

  Device dev;
  gpusim::DeviceBuffer<float> data{dev.alloc<float>(kN)};
  gpusim::DeviceBuffer<float> out{dev.alloc<float>(kBlocks * kThreads)};
  gpusim::SharedLayout layout;
  gpusim::SharedView<float> sbuf{layout.add<float>(kThreads)};
  acc::RuntimeOp<float> rop{acc::ReductionOp::kSum};

  MixedLanesFixture() {
    auto host = data.host_span();
    for (std::size_t i = 0; i < kN; ++i) {
      host[i] = 0.25F * static_cast<float>(i % 157) - 9.0F;
    }
  }

  LaunchStats run(std::uint32_t sim_threads, const std::string& faults) {
    out.fill(0.0F);
    auto dv = data.view();
    auto ov = out.view();
    auto sb = sbuf;
    auto op = rop;
    SimOptions opts;
    opts.sim_threads = sim_threads;
    opts.profile = true;
    opts.racecheck = true;
    opts.faults = faults;
    return gpusim::launch(
        dev, {kBlocks}, {kThreads}, layout.bytes(),
        [=](ThreadCtx& ctx) {
          const std::uint32_t t = ctx.threadIdx.x;
          const std::size_t g = ctx.blockIdx.x * kThreads + t;
          float priv = 0;
          {
            auto s = ctx.prof_scope("load");
            for (std::size_t i = g; i < kN; i += kBlocks * kThreads) {
              priv += ctx.ld(dv, i);
            }
          }
          if (ctx.blockIdx.x % 3 == 0) {
            auto s = ctx.prof_scope("solo");
            if (t % 5 == 0) ctx.alu(3.0);
            ctx.st(ov, g, priv);
            return;
          }
          {
            auto s = ctx.prof_scope("stage");
            ctx.sts(sb, t, priv);
          }
          if (ctx.blockIdx.x % 3 == 1) {
            auto s = ctx.prof_scope("warp");
            if (t % 4 == 1) {
              ctx.st(ov, g, priv);
              return;
            }
            ctx.syncwarp();
            ctx.st(ov, g, priv + 0.5F * ctx.lds(sb, t ^ 1U));
            return;
          }
          reduce::block_tree_reduce(ctx, sb, 0, kThreads, 1, t, op);
          if (t == 0) ctx.st(ov, g, ctx.lds(sb, 0));
        },
        opts);
  }

  std::vector<float> outputs() const {
    return {out.host_span().begin(), out.host_span().end()};
  }
};

TEST(Fastpath, MixedLanesMatchPerLaneDigest) {
  // One seeded bit flip in a mixed warp of block 4 (a kind-1 block).
  const std::string campaign = "bitflip@warp:block=4,nth=2,seed=11";
  MixedLanesFixture fix;
  for (std::uint32_t threads : {1U, 4U}) {
    const LaunchStats got = fix.run(threads, campaign);
    EXPECT_GT(got.barriers, 0U);
    EXPECT_GT(got.syncwarps, 0U);
    EXPECT_EQ(got.races, 0U);
    ASSERT_EQ(got.fault_events.size(), 1U);
    EXPECT_EQ(kPerLaneMixed, digest(got, fix.outputs()))
        << "sim_threads=" << threads;
  }
}

TEST(Fastpath, CleanTreeMatchesClassicDigest) {
  DivergentTreeFixture fix;
  for (std::uint32_t threads : {1U, 4U}) {
    const LaunchStats got = fix.run(threads);
    EXPECT_GT(got.barriers, 0U);
    EXPECT_GT(got.syncwarps, 0U);
    EXPECT_FALSE(got.profile.empty());
    EXPECT_EQ(got.races, 0U);  // the clean kernel must stay clean
    EXPECT_EQ(kClassicClean, digest(got, fix.partials()))
        << "sim_threads=" << threads;
  }
}

TEST(Fastpath, FaultCampaignMatchesClassicDigest) {
  // A two-fault campaign: a seeded bit flip in the load stage of block 2
  // and a dropped barrier in block 7's tree stage. Event lists, race
  // reports (the skipped barrier races), and the lenient-mode diagnostic
  // counters are all in the digest.
  const std::string campaign =
      "bitflip@load:block=2,nth=1,seed=9;skip_barrier@tree:block=7,warp=0";
  DivergentTreeFixture fix;
  for (std::uint32_t threads : {1U, 4U}) {
    const LaunchStats got = fix.run(threads, campaign);
    EXPECT_TRUE(got.faults_armed);
    EXPECT_FALSE(got.fault_events.empty());
    EXPECT_EQ(kClassicCampaign, digest(got, fix.partials()))
        << "sim_threads=" << threads;
  }
}

TEST(Fastpath, BarrierDeletionMutantMatchesClassicDigest) {
  // A hand-rolled tree that drops syncthreads while multiple warps still
  // participate. Racecheck must flag the races the classic driver flagged
  // — same count, same first reports, same stage attribution.
  Device dev;
  constexpr std::uint32_t kThreads = 128;
  auto out = dev.alloc<float>(4);
  gpusim::SharedLayout layout;
  auto sb = layout.add<float>(kThreads);
  auto ov = out.view();

  for (std::uint32_t threads : {1U, 4U}) {
    out.fill(0.0F);
    SimOptions opts;
    opts.sim_threads = threads;
    opts.racecheck = true;
    opts.profile = true;
    const LaunchStats got = gpusim::launch(
        dev, {4}, {kThreads}, layout.bytes(),
        [=](ThreadCtx& ctx) {
          auto s = ctx.prof_scope("mutant_tree");
          const std::uint32_t t = ctx.threadIdx.x;
          ctx.sts(sb, t, static_cast<float>(t % 7));
          ctx.syncthreads();
          for (std::uint32_t stride = kThreads / 2; stride >= 1;
               stride /= 2) {
            if (t < stride) {
              const float a = ctx.lds(sb, t);
              const float b = ctx.lds(sb, t + stride);
              ctx.sts(sb, t, a + b);
            }
            // Deliberate mutation: no syncthreads between multi-warp
            // strides; only the warp-synchronous tail is synchronized.
            if (stride <= 16) ctx.syncwarp();
          }
          if (t == 0) ctx.st(ov, ctx.blockIdx.x, ctx.lds(sb, 0));
        },
        opts);
    EXPECT_GT(got.races, 0U) << "the mutant must actually race";
    EXPECT_FALSE(got.race_reports.empty());
    const std::vector<float> partials(out.host_span().begin(),
                                      out.host_span().end());
    EXPECT_EQ(kClassicMutant, digest(got, partials))
        << "sim_threads=" << threads;
  }
}

}  // namespace
}  // namespace accred
