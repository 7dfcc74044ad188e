// E7: ablation of the in-block log-step tree (Fig. 7, §3.1.1 and the
// Harris reduction kernels the paper leverages): sequential addressing vs
// interleaved-thread addressing, with and without the warp-synchronous
// unrolled tail, across block sizes — reporting barrier counts, shared
// traffic and modeled time for a pure in-block reduction workload.
//
// Flags: --instances N (trees per block, default 512)
//        --profile (per-stage attribution tables, obs/profiler.hpp)
//        --json FILE / --trace FILE (structured record / event trace)
#include <iostream>

#include "acc/ops.hpp"
#include "gpusim/launch.hpp"
#include "reduce/tree.hpp"
#include "gpusim/pool.hpp"
#include "obs/profiler.hpp"
#include "obs/record.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace accred;

gpusim::LaunchStats run_tree_bench(std::uint32_t block_threads,
                                   std::int64_t instances,
                                   const reduce::TreeOptions& opt,
                                   bool profile) {
  gpusim::Device dev;
  auto out = dev.alloc<float>(1);
  auto ov = out.view();
  gpusim::SharedLayout layout;
  auto sbuf = layout.add<float>(block_threads);
  const acc::RuntimeOp<float> rop{acc::ReductionOp::kSum};

  gpusim::SimOptions sim;
  sim.profile = profile;
  sim.label = "tree_bench";
  auto stats = gpusim::launch(
      dev, {1}, {block_threads}, layout.bytes(),
      [&](gpusim::ThreadCtx& ctx) {
        const std::uint32_t t = ctx.threadIdx.x;
        for (std::int64_t inst = 0; inst < instances; ++inst) {
          {
            auto prof = ctx.prof_scope("staging");
            ctx.sts(sbuf, t, static_cast<float>(t + inst));
          }
          reduce::block_tree_reduce(ctx, sbuf, 0, block_threads, 1, t, rop,
                                    opt);
          auto prof = ctx.prof_scope("finalize");
          ctx.syncthreads();
        }
        auto prof = ctx.prof_scope("finalize");
        if (t == 0) ctx.st(ov, 0, ctx.lds(sbuf, 0));
      },
      sim);
  // Sanity: last instance's expected sum.
  const float expect =
      static_cast<float>(block_threads) * static_cast<float>(instances - 1) +
      static_cast<float>(block_threads) * (block_threads - 1) / 2.0F;
  if (out.host_span()[0] != expect) {
    std::cerr << "TREE RESULT MISMATCH: " << out.host_span()[0] << " vs "
              << expect << "\n";
  }
  return stats;
}

}  // namespace

#include "util/main_guard.hpp"

namespace {

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"profile"});
  gpusim::set_default_sim_threads(cli.get_uint32("sim-threads", 0));
  const std::int64_t instances = cli.get_int("instances", 512);
  const bool profile = cli.has("profile") || obs::profile_env_default();
  obs::Session obs(cli, "fig7_tree_variants");
  obs.record().meta("instances", instances);
  if (profile) obs.record().meta("profile", std::int64_t{1});

  std::cout << "== Fig. 7 tree-variant ablation (" << instances
            << " in-block reductions per configuration) ==\n\n";
  util::TextTable t;
  t.header({"block", "variant", "device ms", "barriers", "syncwarps",
            "smem cycles", "bank factor"});

  struct Variant {
    const char* name;
    const char* key;
    reduce::TreeOptions opt;
  };
  reduce::TreeOptions openuh;  // sequential, unrolled tail, full unroll
  reduce::TreeOptions no_tail = openuh;
  no_tail.unroll_last_warp = false;
  reduce::TreeOptions no_unroll = no_tail;
  no_unroll.full_unroll = false;
  reduce::TreeOptions interleaved;
  interleaved.addr = reduce::AddrMode::kInterleavedThreads;
  interleaved.full_unroll = false;

  const Variant variants[] = {
      {"sequential + warp tail + unroll (OpenUH)", "openuh", openuh},
      {"sequential, block barriers", "no_tail", no_tail},
      {"sequential, block barriers, no unroll", "no_unroll", no_unroll},
      {"interleaved threads (Harris k1 baseline)", "interleaved", interleaved},
  };

  for (std::uint32_t block : {128u, 256u, 512u, 1024u}) {
    for (const Variant& v : variants) {
      const auto stats = run_tree_bench(block, instances, v.opt, profile);
      t.row({std::to_string(block), v.name,
             util::TextTable::num(stats.device_time_ns / 1e6),
             std::to_string(stats.barriers), std::to_string(stats.syncwarps),
             std::to_string(stats.smem_cycles),
             util::TextTable::num(gpusim::bank_conflict_factor(stats))});
      obs.record()
          .entry(std::to_string(block) + "/" + v.key)
          .attr("variant", v.name)
          .stats(stats);
      if (!stats.profile.empty()) {
        std::cout << "\n-- block " << block << ", " << v.name
                  << ": per-stage profile --\n";
        obs::print_profile(std::cout, stats.profile);
      }
    }
  }
  t.print(std::cout);
  std::cout << "\nexpected shapes: the warp-synchronous tail removes ~5 "
               "block barriers per tree; interleaved-thread addressing "
               "keeps all warps active longer and costs more barriers.\n";
  return obs.finish() ? 0 : 1;
}

}  // namespace

// All benches, examples, and tools share one top-level exception guard:
// any escaping error prints a structured line and exits non-zero instead
// of crashing (util/main_guard.hpp).
int main(int argc, char** argv) {
  return accred::util::guarded_main([&] { return run(argc, argv); });
}
