// 2D heat equation (the paper's Fig. 13a workload): stencil updates with a
// max-reduction convergence check every iteration. Prints the cooling
// curve and the accumulated reduction cost per compiler profile.
//
//   ./heat_equation [--n grid] [--iters N] [--tol X] [--json F] [--trace F]
#include <iostream>

#include "apps/heat.hpp"
#include "gpusim/pool.hpp"
#include "obs/record.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

#include "util/main_guard.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace accred;
  const util::Cli cli(argc, argv);
  gpusim::set_default_sim_threads(cli.get_uint32("sim-threads", 0));

  obs::Session obs(cli, "heat_equation");
  apps::HeatOptions opts;
  opts.ni = opts.nj = cli.get_int("n", 128);
  opts.max_iterations = static_cast<int>(cli.get_int("iters", 200));
  opts.tolerance = cli.get_double("tol", 1e-2);

  std::cout << "2D heat equation, " << opts.ni << "x" << opts.nj
            << " grid, tolerance " << opts.tolerance << "\n\n";

  // Show the convergence trajectory once (profile-independent).
  for (int cap : {10, 50, 100, opts.max_iterations}) {
    apps::HeatOptions probe = opts;
    probe.max_iterations = cap;
    probe.tolerance = 0;
    const auto r = apps::run_heat_reference(probe);
    std::cout << "  after " << cap << " iterations: max dT = "
              << r.final_error << '\n';
  }
  std::cout << '\n';

  util::TextTable table;
  table.header({"compiler", "iterations", "converged", "reduction ms",
                "update ms"});
  for (acc::CompilerId id :
       {acc::CompilerId::kOpenUH, acc::CompilerId::kPgiLike,
        acc::CompilerId::kCapsLike}) {
    opts.compiler = id;
    const apps::HeatResult r = apps::run_heat(opts);
    table.row({std::string(to_string(id)), std::to_string(r.iterations),
               r.converged ? "yes" : "no",
               util::TextTable::num(r.reduction_device_ms),
               util::TextTable::num(r.update_device_ms)});
    obs.record()
        .entry(std::string(to_string(id)))
        .metric("reduction_ms", r.reduction_device_ms)
        .metric("update_ms", r.update_device_ms)
        .metric("iterations", r.iterations)
        .attr("converged", r.converged ? "yes" : "no")
        .stats(r.reduction_stats);
  }
  table.print(std::cout);
  std::cout << "\nThe reduction column is what the paper's Fig. 12a "
               "compares: its cost repeats every iteration, so the "
               "per-reduction gap accumulates.\n";
  return obs.finish() ? 0 : 1;
}

}  // namespace

// All benches, examples, and tools share one top-level exception guard:
// any escaping error prints a structured line and exits non-zero instead
// of crashing (util/main_guard.hpp).
int main(int argc, char** argv) {
  return accred::util::guarded_main([&] { return run(argc, argv); });
}
