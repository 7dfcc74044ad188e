// E5: Fig. 12c — Monte Carlo PI with a gang+vector '+' reduction over one
// loop, three sampled data sizes (the paper used 1/2/4 GB of coordinates;
// scaled by default), comparing all three compiler profiles.
//
// Flags: --samples n1,n2,n3 (default 4194304,8388608,16777216)
//        --full  (paper-scale GB sizes; needs several GB of RAM and time)
//        --json FILE / --trace FILE (structured record / event trace)
#include <iostream>
#include <sstream>

#include "apps/montecarlo.hpp"
#include "gpusim/pool.hpp"
#include "obs/record.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

#include "util/main_guard.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace accred;
  const util::Cli cli(argc, argv, {"full"});
  gpusim::set_default_sim_threads(cli.get_uint32("sim-threads", 0));
  obs::Session obs(cli, "fig12c_montecarlo");

  std::vector<std::int64_t> sample_counts;
  if (cli.has("full")) {
    // 1 / 2 / 4 GB of coordinate data (two double arrays).
    for (std::int64_t gb : {1, 2, 4}) {
      sample_counts.push_back(gb * (1LL << 30) / (2 * 8));
    }
  } else {
    std::stringstream ss(cli.get("samples", "4194304,8388608,16777216"));
    for (std::string tok; std::getline(ss, tok, ',');) {
      sample_counts.push_back(std::stoll(tok));
    }
  }

  std::cout << "== Fig. 12c reproduction: Monte Carlo PI ==\n\n";
  util::TextTable table;
  table.header({"samples", "data MB", "compiler", "device ms", "h2d ms",
                "pi", "hits ok"});
  for (std::int64_t samples : sample_counts) {
    apps::MonteCarloOptions base;
    base.samples = samples;
    const std::int64_t expect = apps::montecarlo_reference_hits(base);
    for (acc::CompilerId id :
         {acc::CompilerId::kOpenUH, acc::CompilerId::kCapsLike,
          acc::CompilerId::kPgiLike}) {
      apps::MonteCarloOptions o = base;
      o.compiler = id;
      const apps::MonteCarloResult r = apps::run_montecarlo(o);
      table.row({std::to_string(samples),
                 std::to_string(samples * 16 / (1 << 20)),
                 std::string(to_string(id)),
                 util::TextTable::num(r.device_ms),
                 util::TextTable::num(r.transfer_ms),
                 util::TextTable::num(r.pi_estimate, 6),
                 r.hits == expect ? "yes" : "NO"});
      obs.record()
          .entry(std::to_string(samples) + "/" + std::string(to_string(id)))
          .metric("device_ms", r.device_ms)
          .metric("h2d_ms", r.transfer_ms)
          .attr("hits_ok", r.hits == expect ? "yes" : "NO")
          .stats(r.stats);
    }
  }
  table.print(std::cout);
  return obs.finish() ? 0 : 1;
}

}  // namespace

// All benches, examples, and tools share one top-level exception guard:
// any escaping error prints a structured line and exits non-zero instead
// of crashing (util/main_guard.hpp).
int main(int argc, char** argv) {
  return accred::util::guarded_main([&] { return run(argc, argv); });
}
