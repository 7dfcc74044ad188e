// E10: the special considerations of §3.3 —
//   (a) vector sizes that are not a multiple of the warp size stay correct
//       but degrade (the warp-synchronous tail turns off, pre-fold steps
//       appear),
//   (b) mixed-datatype multi-variable clauses: OpenUH's max-type shared
//       slab vs per-variable sections (shared-memory pressure),
//   (c) the global-memory staging fallback when shared memory is reserved.
//
// Flags: --r N (reduction extent, default 2^16)
//        --json FILE / --trace FILE (structured record / event trace)
#include <iostream>

#include "reduce/multivar.hpp"
#include "reduce/vector_reduce.hpp"
#include "testsuite/values.hpp"
#include "gpusim/pool.hpp"
#include "obs/record.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace accred;

gpusim::LaunchStats vector_case(std::int64_t r, std::uint32_t vlen,
                                reduce::Staging staging) {
  gpusim::Device dev;
  const reduce::Nest3 n{2, 8, r};
  const auto volume = static_cast<std::size_t>(n.nk * n.nj * n.ni);
  auto input = dev.alloc<float>(volume);
  {
    auto host = input.host_span();
    for (std::size_t i = 0; i < volume; ++i) {
      host[i] = testsuite::testsuite_value<float>(acc::ReductionOp::kSum, i);
    }
  }
  auto out = dev.alloc<float>(static_cast<std::size_t>(n.nk * n.nj));
  auto iv = input.view();
  auto ov = out.view();
  reduce::Bindings<float> b;
  b.contrib = [=](gpusim::ThreadCtx& ctx, std::int64_t k, std::int64_t j,
                  std::int64_t i) {
    return ctx.ld(iv, static_cast<std::size_t>((k * n.nj + j) * n.ni + i));
  };
  b.sink = [=](gpusim::ThreadCtx& ctx, std::int64_t k, std::int64_t j,
               float v) {
    ctx.st(ov, static_cast<std::size_t>(k * n.nj + j), v);
  };
  acc::LaunchConfig cfg;
  cfg.num_gangs = 2;
  cfg.num_workers = 8;
  cfg.vector_length = vlen;
  reduce::StrategyConfig sc;
  sc.staging = staging;
  return reduce::run_vector_reduction<float>(dev, n, cfg,
                                             acc::ReductionOp::kSum, b, sc)
      .stats;
}

}  // namespace

#include "util/main_guard.hpp"

namespace {

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  gpusim::set_default_sim_threads(cli.get_uint32("sim-threads", 0));
  const std::int64_t r = cli.get_int("r", 1 << 16);
  obs::Session obs(cli, "special_cases");
  obs.record().meta("reduction_extent", r);

  std::cout << "== Special cases of 3.3 (vector reduction, extent " << r
            << ") ==\n\n(a) vector sizes off the warp multiple:\n";
  {
    util::TextTable t;
    t.header({"vector len", "device ms", "barriers", "syncwarps",
              "note"});
    for (std::uint32_t vlen : {128u, 96u, 64u, 48u, 33u}) {
      const auto s = vector_case(r, vlen, reduce::Staging::kShared);
      t.row({std::to_string(vlen),
             util::TextTable::num(s.device_time_ns / 1e6),
             std::to_string(s.barriers), std::to_string(s.syncwarps),
             vlen % 32 == 0 ? "warp multiple" : "tail disabled, pre-fold"});
      obs.record()
          .entry("vlen/" + std::to_string(vlen))
          .attr("warp_multiple", vlen % 32 == 0 ? "yes" : "no")
          .stats(s);
    }
    t.print(std::cout);
  }

  std::cout << "\n(b) shared staging vs the global fallback:\n";
  {
    util::TextTable t;
    t.header({"staging", "device ms", "gmem segments", "smem requests"});
    for (auto [name, key, st] :
         {std::tuple{"shared (default)", "shared", reduce::Staging::kShared},
          std::tuple{"global fallback", "global", reduce::Staging::kGlobal}}) {
      const auto s = vector_case(r, 128, st);
      t.row({name, util::TextTable::num(s.device_time_ns / 1e6),
             std::to_string(s.gmem_segments),
             std::to_string(s.smem_requests)});
      obs.record().entry(std::string("staging/") + key)
          .attr("staging", name)
          .stats(s);
    }
    t.print(std::cout);
  }

  std::cout << "\n(c) mixed-type multi-variable staging footprint "
               "(1024-thread block):\n";
  {
    util::TextTable t;
    t.header({"variables", "max-slab bytes (OpenUH)", "sections bytes",
              "sections fit in 48 KiB?"});
    std::vector<reduce::MultiVarSpec> vars;
    for (int nvars = 1; nvars <= 12; ++nvars) {
      reduce::MultiVarSpec v;
      v.type = (nvars % 2 == 0) ? acc::DataType::kInt32
                                : acc::DataType::kDouble;
      vars.push_back(v);
      const std::size_t slab = reduce::multi_staging_bytes(
          vars, 1024, reduce::SlabPolicy::kSharedMaxSlab);
      const std::size_t sections = reduce::multi_staging_bytes(
          vars, 1024, reduce::SlabPolicy::kPerVarSections);
      t.row({std::to_string(nvars), std::to_string(slab),
             std::to_string(sections),
             sections <= 48 * 1024 ? "yes" : "NO"});
      obs.record()
          .entry("multivar/" + std::to_string(nvars))
          .metric("slab_bytes", static_cast<std::int64_t>(slab))
          .metric("sections_bytes", static_cast<std::int64_t>(sections))
          .attr("sections_fit", sections <= 48 * 1024 ? "yes" : "NO");
    }
    t.print(std::cout);
  }
  std::cout << "\nexpected shapes: off-warp vector lengths lose the "
               "syncwarp tail and add barriers; the global fallback trades "
               "shared traffic for extra global segments; the OpenUH slab "
               "stays at one max-type footprint while sections grow "
               "linearly past the hardware limit.\n";
  return obs.finish() ? 0 : 1;
}

}  // namespace

// All benches, examples, and tools share one top-level exception guard:
// any escaping error prints a structured line and exits non-zero instead
// of crashing (util/main_guard.hpp).
int main(int argc, char** argv) {
  return accred::util::guarded_main([&] { return run(argc, argv); });
}
