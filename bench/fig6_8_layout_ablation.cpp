// E6: ablation of the shared-memory staging layouts of Figs. 6 and 8 —
// the design choices §3.1 argues for. Reports bank-conflict factors,
// barrier counts, shared traffic and modeled time for:
//   vector reduction: row-contiguous (6c, OpenUH) vs transposed (6b)
//   worker reduction: first-row (8c, OpenUH) vs duplicated-rows (8b)
//   both: shared staging vs the global-memory fallback (§3.3)
//
// Flags: --r N (reduction extent, default 2^16)
//        --profile (per-stage attribution tables, obs/profiler.hpp)
//        --racecheck (dynamic race detection, gpusim/racecheck.hpp; the
//                     six variants must all be race-free — tools/
//                     racecheck_report gates on the JSON record)
//        --json FILE / --trace FILE (structured record / event trace)
#include <iostream>

#include "reduce/vector_reduce.hpp"
#include "reduce/worker_reduce.hpp"
#include "testsuite/values.hpp"
#include "gpusim/pool.hpp"
#include "obs/profiler.hpp"
#include "obs/record.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace accred;

struct Row {
  std::string name;
  gpusim::LaunchStats stats;
};

template <typename Run>
Row run_variant(std::string name, std::int64_t r, Run&& run) {
  gpusim::Device dev;
  const reduce::Nest3 n{2, 32, 0};  // filled per strategy below
  (void)n;
  auto stats = run(dev, r);
  return {std::move(name), stats};
}

gpusim::LaunchStats run_vector(gpusim::Device& dev, std::int64_t r,
                               const reduce::StrategyConfig& sc) {
  const reduce::Nest3 n{2, 32, r};
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
  return reduce::run_vector_reduction<float>(dev, n, {}, acc::ReductionOp::kSum,
                                             b, sc)
      .stats;
}

gpusim::LaunchStats run_worker(gpusim::Device& dev, std::int64_t r,
                               const reduce::StrategyConfig& sc) {
  const reduce::Nest3 n{2, r, 32};
  const auto count = static_cast<std::size_t>(n.nk * n.nj);
  auto input = dev.alloc<float>(count);
  {
    auto host = input.host_span();
    for (std::size_t i = 0; i < count; ++i) {
      host[i] = testsuite::testsuite_value<float>(acc::ReductionOp::kSum, i);
    }
  }
  auto out = dev.alloc<float>(static_cast<std::size_t>(n.nk));
  auto iv = input.view();
  auto ov = out.view();
  reduce::Bindings<float> b;
  b.contrib = [=](gpusim::ThreadCtx& ctx, std::int64_t k, std::int64_t j,
                  std::int64_t) {
    return ctx.ld(iv, static_cast<std::size_t>(k * n.nj + j));
  };
  b.sink = [=](gpusim::ThreadCtx& ctx, std::int64_t k, std::int64_t,
               float v) { ctx.st(ov, static_cast<std::size_t>(k), v); };
  return reduce::run_worker_reduction<float>(dev, n, {}, acc::ReductionOp::kSum,
                                             b, sc)
      .stats;
}

void emit(util::TextTable& t, obs::RunRecord& rec, const std::string& key,
          const std::string& name, const gpusim::LaunchStats& s) {
  t.row({name, util::TextTable::num(s.device_time_ns / 1e6),
         std::to_string(s.smem_requests),
         util::TextTable::num(gpusim::bank_conflict_factor(s)),
         std::to_string(s.barriers), std::to_string(s.syncwarps),
         std::to_string(s.gmem_segments)});
  rec.entry(key).attr("variant", name).stats(s);
  if (!s.profile.empty()) {
    std::cout << "\n-- " << name << ": per-stage profile --\n";
    obs::print_profile(std::cout, s.profile);
  }
  if (s.racecheck && s.races > 0) {
    std::cout << "\n-- " << name << ": " << s.races << " race(s) --\n";
    for (const gpusim::RaceReport& r : s.race_reports) {
      std::cout << "  " << gpusim::to_string(r) << '\n';
    }
  }
}

}  // namespace

#include "util/main_guard.hpp"

namespace {

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"profile", "racecheck"});
  gpusim::set_default_sim_threads(cli.get_uint32("sim-threads", 0));
  const std::int64_t r = cli.get_int("r", 1 << 16);
  const bool profile = cli.get_bool("profile") || obs::profile_env_default();
  const bool racecheck =
      cli.get_bool("racecheck") || gpusim::racecheck_env_default();
  obs::Session obs(cli, "fig6_8_layout_ablation");
  obs.record().meta("reduction_extent", r);
  if (profile) obs.record().meta("profile", std::int64_t{1});
  if (racecheck) obs.record().meta("racecheck", std::int64_t{1});

  std::cout << "== Fig. 6 / Fig. 8 staging-layout ablation (extent " << r
            << ") ==\n\n";
  util::TextTable t;
  t.header({"variant", "device ms", "smem reqs", "bank factor", "barriers",
            "syncwarps", "gmem segs"});

  {
    gpusim::Device dev;
    reduce::StrategyConfig sc;  // OpenUH defaults: Fig. 6c
    sc.sim.profile = profile;
    sc.sim.racecheck = racecheck;
    emit(t, obs.record(), "vector/row_contiguous", "vector row-contiguous (6c, OpenUH)", run_vector(dev, r, sc));
  }
  {
    gpusim::Device dev;
    reduce::StrategyConfig sc;
    sc.sim.profile = profile;
    sc.sim.racecheck = racecheck;
    sc.vector_layout = reduce::VectorLayout::kTransposed;
    emit(t, obs.record(), "vector/transposed", "vector transposed (6b)", run_vector(dev, r, sc));
  }
  {
    gpusim::Device dev;
    reduce::StrategyConfig sc;
    sc.sim.profile = profile;
    sc.sim.racecheck = racecheck;
    sc.staging = reduce::Staging::kGlobal;
    emit(t, obs.record(), "vector/global_fallback", "vector global fallback (3.3)", run_vector(dev, r, sc));
  }
  {
    gpusim::Device dev;
    reduce::StrategyConfig sc;  // Fig. 8c
    sc.sim.profile = profile;
    sc.sim.racecheck = racecheck;
    emit(t, obs.record(), "worker/first_row", "worker first-row (8c, OpenUH)", run_worker(dev, r, sc));
  }
  {
    gpusim::Device dev;
    reduce::StrategyConfig sc;
    sc.sim.profile = profile;
    sc.sim.racecheck = racecheck;
    sc.worker_layout = reduce::WorkerLayout::kDuplicatedRows;
    emit(t, obs.record(), "worker/duplicated_rows", "worker duplicated rows (8b)", run_worker(dev, r, sc));
  }
  {
    gpusim::Device dev;
    reduce::StrategyConfig sc;
    sc.sim.profile = profile;
    sc.sim.racecheck = racecheck;
    sc.staging = reduce::Staging::kGlobal;
    emit(t, obs.record(), "worker/global_fallback", "worker global fallback (3.3)", run_worker(dev, r, sc));
  }
  t.print(std::cout);
  std::cout << "\nexpected shapes: transposed pays a W-way bank-conflict "
               "factor; duplicated rows multiplies shared traffic and "
               "barriers; global staging trades shared pressure for global "
               "segments.\n";
  return obs.finish() ? 0 : 1;
}

}  // namespace

// All benches, examples, and tools share one top-level exception guard:
// any escaping error prints a structured line and exits non-zero instead
// of crashing (util/main_guard.hpp).
int main(int argc, char** argv) {
  return accred::util::guarded_main([&] { return run(argc, argv); });
}
