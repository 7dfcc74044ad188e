// Cascaded reductions (§3.2's "reduction can occur on different variables
// within different levels of parallelism"): over a 3-D sensor cube
// (slabs x rows x samples), compute in ONE device pass
//
//   row_energy[slab][row] = SUM over samples          (vector level)
//   slab_peak[slab]       = MAX over row energies     (worker level)
//   total                 = SUM over slab peaks       (gang level)
//
// — the Fig. 4 chain with mixed operators, run as one fused
// [vector, worker, gang] chain kernel plus the gang finalize.
//
//   ./nested_statistics [--slabs S] [--rows R] [--samples N]
#include <iostream>

#include "reduce/fused_cascade.hpp"
#include "util/main_guard.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace accred;

int run(const util::Cli& cli, obs::RunRecord&) {
  const reduce::Nest3 n{cli.get_int("slabs", 6), cli.get_int("rows", 48),
                        cli.get_int("samples", 4096)};

  gpusim::Device dev;
  const auto volume = static_cast<std::size_t>(n.nk * n.nj * n.ni);
  auto cube = dev.alloc<double>(volume);
  util::fill_uniform(cube.host_span(), 99, 0.0, 1.0);
  auto cv = cube.view();
  auto peaks = dev.alloc<double>(static_cast<std::size_t>(n.nk));
  auto pv = peaks.view();

  // Per-lane bodies, each run on one lane's view by reduce::per_lane.
  reduce::FusedChainBindings<double> b;
  b.contrib = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                                   std::int64_t j, std::int64_t i) {
    const double v = ctx.ld(cv, std::size_t((k * n.nj + j) * n.ni + i));
    ctx.alu(1);
    return v * v;  // energy
  });
  b.worker_sink = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t k,
                                       std::int64_t, double r) {
    ctx.st(pv, std::size_t(k), r);
  });

  const std::vector<acc::FusedStage> chain = {
      {acc::ReductionOp::kSum, acc::Par::kVector, "row_energy"},
      {acc::ReductionOp::kMax, acc::Par::kWorker, "slab_peak"},
      {acc::ReductionOp::kSum, acc::Par::kGang, "total"}};
  const auto res = reduce::run_fused_chain<double>(dev, chain, n, {}, b);

  std::cout << "cube " << n.nk << " slabs x " << n.nj << " rows x " << n.ni
            << " samples; one device pass, " << res.kernels
            << " kernels, modeled " << res.stats.device_time_ns / 1e6
            << " ms\n\n";
  util::TextTable t;
  t.header({"slab", "peak row energy"});
  for (std::int64_t k = 0; k < n.nk; ++k) {
    t.row({std::to_string(k),
           util::TextTable::num(peaks.host_span()[std::size_t(k)], 3)});
  }
  t.print(std::cout);
  std::cout << "\nsum of slab peaks = " << *res.scalar << '\n';

  // Host check.
  double expect = 0;
  for (std::int64_t k = 0; k < n.nk; ++k) {
    double peak = std::numeric_limits<double>::lowest();
    for (std::int64_t j = 0; j < n.nj; ++j) {
      double e = 0;
      for (std::int64_t i = 0; i < n.ni; ++i) {
        const double v =
            cube.host_span()[std::size_t((k * n.nj + j) * n.ni + i)];
        e += v * v;
      }
      peak = std::max(peak, e);
    }
    expect += peak;
  }
  std::cout << "host reference     = " << expect << '\n';
  return std::abs(*res.scalar - expect) < 1e-9 * std::abs(expect) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return util::tool_main(argc, argv, "nested_statistics",
                         {}, {"rows", "samples", "slabs"}, run);
}
