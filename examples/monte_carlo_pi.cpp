// Monte Carlo PI (the paper's Fig. 13c): count samples falling inside the
// unit circle with a '+' reduction over a loop distributed across gang and
// vector threads. Coordinates are pre-generated on the host and copied to
// the device, as in the paper.
//
//   ./monte_carlo_pi [--samples N] [--json F] [--trace F]
#include <cmath>
#include <iostream>

#include "apps/montecarlo.hpp"
#include "util/main_guard.hpp"
#include "util/table.hpp"

namespace {

using namespace accred;

int run(const util::Cli& cli, obs::RunRecord& record) {
  apps::MonteCarloOptions opts;
  opts.samples = cli.get_int("samples", 1 << 22);
  record.meta("samples", opts.samples);

  std::cout << "Monte Carlo PI with " << opts.samples << " samples ("
            << opts.samples * 16 / (1 << 20) << " MB of coordinates)\n\n";

  util::TextTable table;
  table.header({"compiler", "pi estimate", "|error|", "device ms",
                "h2d ms"});
  for (acc::CompilerId id :
       {acc::CompilerId::kOpenUH, acc::CompilerId::kCapsLike,
        acc::CompilerId::kPgiLike}) {
    opts.compiler = id;
    const apps::MonteCarloResult r = apps::run_montecarlo(opts);
    table.row({std::string(to_string(id)),
               util::TextTable::num(r.pi_estimate, 6),
               util::TextTable::num(std::fabs(r.pi_estimate - M_PI), 6),
               util::TextTable::num(r.device_ms),
               util::TextTable::num(r.transfer_ms)});
    record.entry(std::string(to_string(id)))
        .metric("device_ms", r.device_ms)
        .metric("h2d_ms", r.transfer_ms)
        .attr("pi", util::TextTable::num(r.pi_estimate, 6))
        .stats(r.stats);
  }
  table.print(std::cout);
  std::cout << "\nAll profiles count exactly the same hits; the modeled "
               "time differs (Fig. 12c's shape).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::tool_main(argc, argv, "monte_carlo_pi", {}, {"samples"}, run);
}
