// E5: Fig. 12c — Monte Carlo PI with a gang+vector '+' reduction over one
// loop, three sampled data sizes (the paper used 1/2/4 GB of coordinates;
// scaled by default), comparing all three compiler profiles.
//
// Flags: --samples n1,n2,n3 (default 4194304,8388608,16777216)
//        --full  (paper-scale GB sizes; needs several GB of RAM and time)
//        --json FILE / --trace FILE (structured record / event trace)
#include <iostream>

#include "apps/montecarlo.hpp"
#include "util/main_guard.hpp"
#include "util/table.hpp"

namespace {

using namespace accred;

int run(const util::Cli& cli, obs::RunRecord& record) {
  std::vector<std::int64_t> sample_counts;
  if (cli.has("full")) {
    // 1 / 2 / 4 GB of coordinate data (two double arrays).
    for (std::int64_t gb : {1, 2, 4}) {
      sample_counts.push_back(gb * (1LL << 30) / (2 * 8));
    }
  } else {
    sample_counts = cli.get_counts("samples", "4194304,8388608,16777216");
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
      record.entry(std::to_string(samples) + "/" + std::string(to_string(id)))
          .metric("device_ms", r.device_ms)
          .metric("h2d_ms", r.transfer_ms)
          .attr("hits_ok", r.hits == expect ? "yes" : "NO")
          .stats(r.stats);
    }
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::tool_main(argc, argv, "fig12c_montecarlo",
                         {"full"}, {"samples"}, run);
}
