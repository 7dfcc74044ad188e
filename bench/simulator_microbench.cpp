// Host-side microbenchmarks (google-benchmark) of the simulator substrate
// itself: fiber context-switch cost, barrier rendezvous, cost-model event
// logging, and end-to-end simulated-elements-per-second throughput. These
// measure OUR implementation (wall time), not the modeled device.
//
// Accepts google-benchmark's own flags plus --json FILE / --trace FILE
// (structured record / event trace) and --sim-threads N. All exported
// metrics are wall_* — host wall clock, never regression-gated.
#include <benchmark/benchmark.h>

#include <string_view>
#include <vector>

#include "acc/ops.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/pool.hpp"
#include "obs/record.hpp"
#include "reduce/tree.hpp"
#include "util/cli.hpp"

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

}  // namespace

#include "util/main_guard.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace accred;
  const util::Cli cli(argc, argv);
  gpusim::set_default_sim_threads(cli.get_uint32("sim-threads", 0));
  obs::Session obs(cli, "simulator_microbench");

  // google-benchmark rejects flags it does not recognize, so strip ours
  // (both `--flag value` and `--flag=value` spellings) before handing over.
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--json" || a == "--trace" || a == "--sim-threads") {
      if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
        ++i;
      }
      continue;
    }
    if (a.starts_with("--json=") || a.starts_with("--trace=") ||
        a.starts_with("--sim-threads=")) {
      continue;
    }
    args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  RecordingReporter reporter(obs.record());
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return obs.finish() ? 0 : 1;
}

}  // namespace

// All benches, examples, and tools share one top-level exception guard:
// any escaping error prints a structured line and exits non-zero instead
// of crashing (util/main_guard.hpp).
int main(int argc, char** argv) {
  return accred::util::guarded_main([&] { return run(argc, argv); });
}
