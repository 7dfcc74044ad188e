// Host-side microbenchmarks (google-benchmark) of the simulator substrate
// itself: fiber context-switch cost, barrier rendezvous, cost-model event
// logging (per lane and per warp instruction), warp-context loads by index
// shape, and end-to-end simulated-elements-per-second throughput of a lane
// kernel and a warp kernel. These measure OUR implementation (wall time),
// not the modeled device.
//
// Accepts google-benchmark's own flags plus --json FILE / --trace FILE
// (structured record / event trace) and --sim-threads N. All exported
// metrics are wall_* — host wall clock, never regression-gated.
#include <benchmark/benchmark.h>

#include <array>
#include <string_view>
#include <vector>

#include "acc/ops.hpp"
#include "gpusim/launch.hpp"
#include "reduce/tree.hpp"
#include "util/main_guard.hpp"
#include "util/rng.hpp"

namespace {

using namespace accred;

void BM_FiberSwitch(benchmark::State& state) {
  gpusim::Fiber f(16 * 1024);
  f.reset(+[](void*) {
    for (;;) gpusim::Fiber::yield();
  }, nullptr);
  for (auto _ : state) {
    f.resume();  // one switch in, one out
  }
  f.abandon();
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_FiberSwitch);

void BM_BlockBarrier(benchmark::State& state) {
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  gpusim::Device dev;
  for (auto _ : state) {
    auto stats = gpusim::launch(dev, {1}, {threads}, 0,
                                [](gpusim::ThreadCtx& ctx) {
                                  for (int i = 0; i < 16; ++i) {
                                    ctx.syncthreads();
                                  }
                                });
    benchmark::DoNotOptimize(stats.barriers);
  }
  state.SetItemsProcessed(state.iterations() * threads * 16);
}
BENCHMARK(BM_BlockBarrier)->Arg(64)->Arg(256)->Arg(1024);

void BM_CoalescingLogger(benchmark::State& state) {
  gpusim::CostParams params;
  gpusim::WarpLog log;
  for (auto _ : state) {
    log.reset(params);
    for (std::uint32_t lane = 0; lane < 32; ++lane) {
      for (std::uint32_t k = 0; k < 64; ++k) {
        log.global_access(lane, 0x10000 + k * 128 + lane * 4, 4);
      }
    }
    benchmark::DoNotOptimize(log.end_epoch());
  }
  state.SetItemsProcessed(state.iterations() * 32 * 64);
}
BENCHMARK(BM_CoalescingLogger);

/// BM_CoalescingLogger's 64 accesses per lane booked as a warp kernel books
/// them: 64 full-warp instructions. `affine` puts lane l of instruction k
/// at line k + 4·l bytes (the unit-stride row the strategies issue), else
/// each lane at a scattered 8-byte slot of a 128-KB region; `closed_form`
/// books the affine rows through the closed-form entry instead of the
/// lane-vector one.
void warp_booking_probe(benchmark::State& state, bool affine,
                        bool closed_form) {
  constexpr std::uint32_t kInstr = 64;
  std::vector<std::array<std::uint64_t, 32>> addr(kInstr);
  util::SplitMix64 rng(7);
  for (std::uint32_t k = 0; k < kInstr; ++k) {
    for (std::uint32_t lane = 0; lane < 32; ++lane) {
      addr[k][lane] = affine ? 0x10000 + k * 128 + lane * 4
                             : 0x10000 + 8 * rng.next_below(1 << 14);
    }
  }
  gpusim::CostParams params;
  gpusim::WarpLog log;
  for (auto _ : state) {
    log.reset(params);
    for (std::uint32_t k = 0; k < kInstr; ++k) {
      if (closed_form) {
        log.global_access_alu1_affine(gpusim::kAllLanes, addr[k][0], 4, 4);
      } else {
        log.global_access_alu1_lanes(gpusim::kAllLanes, addr[k].data(), 4);
      }
    }
    benchmark::DoNotOptimize(log.end_epoch());
  }
  state.SetItemsProcessed(state.iterations() * 32 * kInstr);
}
void BM_WarpLogLanesAffine(benchmark::State& state) {
  warp_booking_probe(state, /*affine=*/true, /*closed_form=*/false);
}
void BM_WarpLogLanesScattered(benchmark::State& state) {
  warp_booking_probe(state, /*affine=*/false, /*closed_form=*/false);
}
void BM_WarpLogAffineEntry(benchmark::State& state) {
  warp_booking_probe(state, /*affine=*/true, /*closed_form=*/true);
}
BENCHMARK(BM_WarpLogLanesAffine);
BENCHMARK(BM_WarpLogLanesScattered);
BENCHMARK(BM_WarpLogAffineEntry);

enum class LoadShape { kAffine, kStrided, kScattered };

/// Full-warp loads through WarpCtx::ld, the whole path a warp kernel's
/// global load takes (index test, bounds checks, booking, data copy): one
/// launch of one block of 8 warps, each issuing 256 loads of floats from a
/// 256-KB buffer. kAffine puts lane l of a load at consecutive elements
/// (booked in closed form); kStrided puts lanes 64 elements (256 bytes)
/// apart and kScattered at random elements, both booked lane by lane after
/// the index test gives up.
void warp_load_probe(benchmark::State& state, LoadShape shape) {
  constexpr std::uint32_t kWarps = 8;
  constexpr std::uint32_t kInstr = 256;
  constexpr std::uint32_t kElems = 1U << 16;
  gpusim::Device dev;
  auto data = dev.alloc<float>(kElems);
  data.fill(1.0F);
  auto dv = data.view();
  std::vector<gpusim::Lanes<std::uint32_t>> idx(kWarps * kInstr);
  util::SplitMix64 rng(7);
  for (std::uint32_t k = 0; k < kWarps * kInstr; ++k) {
    for (std::uint32_t l = 0; l < 32; ++l) {
      switch (shape) {
        case LoadShape::kAffine:
          idx[k][l] = (k * 32 + l) % kElems;
          break;
        case LoadShape::kStrided:
          idx[k][l] = (k + l * 64) % kElems;
          break;
        case LoadShape::kScattered:
          idx[k][l] = static_cast<std::uint32_t>(rng.next_below(kElems));
          break;
      }
    }
  }
  for (auto _ : state) {
    auto stats = gpusim::launch(
        dev, {1}, {kWarps * 32}, 0, [&](gpusim::WarpCtx& wc) {
          const std::uint32_t w = wc.linear_tid(0) / 32;
          gpusim::Lanes<float> v{};
          float sum = 0;
          for (std::uint32_t k = 0; k < kInstr; ++k) {
            wc.ld(wc.lanes(), dv, idx[w * kInstr + k], v);
            sum += v[0];
          }
          benchmark::DoNotOptimize(sum);
        });
    benchmark::DoNotOptimize(stats.device_time_ns);
  }
  state.SetItemsProcessed(state.iterations() * kWarps * kInstr * 32);
}
void BM_WarpCtxLoadAffine(benchmark::State& state) {
  warp_load_probe(state, LoadShape::kAffine);
}
void BM_WarpCtxLoadStrided(benchmark::State& state) {
  warp_load_probe(state, LoadShape::kStrided);
}
void BM_WarpCtxLoadScattered(benchmark::State& state) {
  warp_load_probe(state, LoadShape::kScattered);
}
BENCHMARK(BM_WarpCtxLoadAffine);
BENCHMARK(BM_WarpCtxLoadStrided);
BENCHMARK(BM_WarpCtxLoadScattered);

void BM_SimulatedReduceThroughput(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  gpusim::Device dev;
  auto data = dev.alloc<float>(static_cast<std::size_t>(n));
  data.fill(1.0F);
  auto out = dev.alloc<float>(1);
  auto dv = data.view();
  auto ov = out.view();
  gpusim::SharedLayout layout;
  auto sbuf = layout.add<float>(256);
  const acc::RuntimeOp<float> rop{acc::ReductionOp::kSum};

  for (auto _ : state) {
    auto stats = gpusim::launch(
        dev, {13}, {256}, layout.bytes(), [&](gpusim::ThreadCtx& ctx) {
          float priv = 0;
          for (std::int64_t i = ctx.blockIdx.x * 256 + ctx.threadIdx.x;
               i < n; i += 13 * 256) {
            priv += ctx.ld(dv, static_cast<std::size_t>(i));
          }
          ctx.sts(sbuf, ctx.threadIdx.x, priv);
          reduce::block_tree_reduce(ctx, sbuf, 0, 256, 1, ctx.threadIdx.x,
                                    rop);
          if (ctx.linear_tid() == 0) {
            ctx.st(ov, ctx.blockIdx.x == 0 ? 0 : 0, ctx.lds(sbuf, 0));
          }
        });
    benchmark::DoNotOptimize(stats.device_time_ns);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimulatedReduceThroughput)->Arg(1 << 16)->Arg(1 << 20);

/// BM_SimulatedReduceThroughput as a warp kernel (one fiber per warp): each
/// loop step is one lane-vector load over the lanes still in range, and
/// the tree is the warp tree.
void BM_SimulatedReduceThroughputWarp(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  gpusim::Device dev;
  auto data = dev.alloc<float>(static_cast<std::size_t>(n));
  data.fill(1.0F);
  auto out = dev.alloc<float>(1);
  auto dv = data.view();
  auto ov = out.view();
  gpusim::SharedLayout layout;
  auto sbuf = layout.add<float>(256);
  const acc::RuntimeOp<float> rop{acc::ReductionOp::kSum};

  for (auto _ : state) {
    auto stats = gpusim::launch(
        dev, {13}, {256}, layout.bytes(), [&](gpusim::WarpCtx& wc) {
          const gpusim::LaneMask all = wc.lanes();
          gpusim::Lanes<std::uint32_t> tx{};
          gpusim::Lanes<std::int64_t> i{};
          for (std::uint32_t l = 0; l < wc.width(); ++l) {
            tx[l] = wc.threadIdx(l).x;
            i[l] = wc.blockIdx.x * 256 + tx[l];
          }
          gpusim::Lanes<float> priv{};
          gpusim::Lanes<float> v{};
          for (;;) {
            const gpusim::LaneMask m = gpusim::lanes_where(
                all, [&](std::uint32_t l) { return i[l] < n; });
            if (m == 0) break;
            wc.ld(m, dv, i, v);
            gpusim::for_each_lane(m, [&](std::uint32_t l) {
              priv[l] += v[l];
              i[l] += 13 * 256;
            });
          }
          wc.sts(all, sbuf, tx, priv);
          reduce::block_tree_reduce(wc, sbuf, gpusim::Lanes<std::uint32_t>{},
                                    256, 1, tx, rop);
          const gpusim::LaneMask lead = gpusim::lanes_where(
              all, [&](std::uint32_t l) { return wc.linear_tid(l) == 0; });
          gpusim::Lanes<float> r{};
          wc.lds(lead, sbuf, gpusim::Lanes<std::uint32_t>{}, r);
          wc.st(lead, ov, gpusim::Lanes<std::uint32_t>{}, r);
        });
    benchmark::DoNotOptimize(stats.device_time_ns);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimulatedReduceThroughputWarp)->Arg(1 << 16)->Arg(1 << 20);

/// Host-parallel scaling of one launch: 128 independent blocks sharded
/// across sim_threads workers. Ideal scaling halves wall time per doubling
/// until the host runs out of cores; stats stay bit-identical throughout
/// (test_parallel_launch asserts that — here we only measure).
void BM_ParallelLaunch(benchmark::State& state) {
  constexpr std::int64_t kBlocks = 128;
  constexpr std::int64_t kThreads = 128;
  constexpr std::int64_t n = 1 << 18;
  gpusim::Device dev;
  auto data = dev.alloc<float>(static_cast<std::size_t>(n));
  data.fill(1.0F);
  auto out = dev.alloc<float>(static_cast<std::size_t>(kBlocks));
  auto dv = data.view();
  auto ov = out.view();
  gpusim::SharedLayout layout;
  auto sbuf = layout.add<float>(static_cast<std::size_t>(kThreads));
  const acc::RuntimeOp<float> rop{acc::ReductionOp::kSum};
  gpusim::SimOptions opts;
  opts.sim_threads = static_cast<std::uint32_t>(state.range(0));

  for (auto _ : state) {
    auto stats = gpusim::launch(
        dev, {kBlocks}, {kThreads}, layout.bytes(),
        [&](gpusim::ThreadCtx& ctx) {
          float priv = 0;
          for (std::int64_t i = ctx.blockIdx.x * kThreads + ctx.threadIdx.x;
               i < n; i += kBlocks * kThreads) {
            priv += ctx.ld(dv, static_cast<std::size_t>(i));
          }
          ctx.sts(sbuf, ctx.threadIdx.x, priv);
          reduce::block_tree_reduce(ctx, sbuf, 0, kThreads, 1,
                                    ctx.threadIdx.x, rop);
          if (ctx.linear_tid() == 0) {
            ctx.st(ov, ctx.blockIdx.x, ctx.lds(sbuf, 0));
          }
        },
        opts);
    benchmark::DoNotOptimize(stats.device_time_ns);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ParallelLaunch)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

/// Console output as usual, plus every run mirrored into the RunRecord.
class RecordingReporter : public benchmark::ConsoleReporter {
public:
  explicit RecordingReporter(obs::RunRecord& rec) : rec_(rec) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      obs::BenchEntry& e = rec_.entry(run.benchmark_name());
      e.metric("wall_real_ns", run.GetAdjustedRealTime());
      e.metric("wall_cpu_ns", run.GetAdjustedCPUTime());
      e.attr("iterations", std::to_string(run.iterations));
      if (auto it = run.counters.find("items_per_second");
          it != run.counters.end()) {
        e.metric("wall_items_per_sec", it->second.value);
      }
    }
  }

private:
  obs::RunRecord& rec_;
};

// google-benchmark's own flags (`--benchmark_*`, always in `--flag=value`
// form) and argv[0]; main hands every other argument to tool_main.
std::vector<char*> g_bench_args;

int run(const util::Cli&, obs::RunRecord& record) {
  // google-benchmark rejects the `--benchmark_*` flags it does not know.
  int bench_argc = static_cast<int>(g_bench_args.size());
  benchmark::Initialize(&bench_argc, g_bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             g_bench_args.data())) {
    return 1;
  }
  RecordingReporter reporter(record);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> own = {argv[0]};
  g_bench_args = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const bool gbench = std::string_view(argv[i]).starts_with("--benchmark_");
    (gbench ? g_bench_args : own).push_back(argv[i]);
  }
  return util::tool_main(static_cast<int>(own.size()), own.data(),
                         "simulator_microbench", {}, {}, run);
}
