// E3: Fig. 12a — 2D heat equation, grid sizes 128^2..512^2, comparing the
// accumulated max-reduction time of openuh vs pgi_like. The paper's CAPS
// column is absent from Fig. 12a because CAPS never converged (its error
// increased); our caps_like model computes correctly, so we print it with
// that footnote.
//
// Flags: --iters N (default 100), --sizes a,b,c (default 128,256,512),
//        --tol X (default 0 = run all iterations),
//        --json FILE / --trace FILE (structured record / event trace)
#include <iostream>

#include "apps/heat.hpp"
#include "util/main_guard.hpp"
#include "util/table.hpp"

namespace {

using namespace accred;

int run(const util::Cli& cli, obs::RunRecord& record) {
  const int iters = static_cast<int>(cli.get_int("iters", 50));
  const double tol = cli.get_double("tol", 0.0);
  const auto sizes = cli.get_counts("sizes", "128,256,512");

  std::cout << "== Fig. 12a reproduction: 2D heat equation (max reduction) =="
            << "\niterations: " << iters << ", tolerance: " << tol << "\n\n";

  util::TextTable table;
  table.header({"grid", "compiler", "reduction ms", "update ms", "total ms",
                "final err", "converged"});
  for (std::int64_t n : sizes) {
    for (acc::CompilerId id :
         {acc::CompilerId::kOpenUH, acc::CompilerId::kPgiLike,
          acc::CompilerId::kCapsLike}) {
      apps::HeatOptions o;
      o.ni = n;
      o.nj = n;
      o.max_iterations = iters;
      o.tolerance = tol;
      o.compiler = id;
      const apps::HeatResult r = apps::run_heat(o);
      table.row({std::to_string(n) + "x" + std::to_string(n),
                 std::string(to_string(id)),
                 util::TextTable::num(r.reduction_device_ms),
                 util::TextTable::num(r.update_device_ms),
                 util::TextTable::num(r.total_device_ms),
                 util::TextTable::num(r.final_error, 6),
                 r.converged ? "yes" : "cap"});
      record
          .entry(std::to_string(n) + "x" + std::to_string(n) + "/" +
                 std::string(to_string(id)))
          .metric("reduction_ms", r.reduction_device_ms)
          .metric("update_ms", r.update_device_ms)
          .metric("total_ms", r.total_device_ms)
          .metric("iterations", r.iterations)
          .attr("converged", r.converged ? "yes" : "cap")
          .stats(r.reduction_stats);
    }
  }
  table.print(std::cout);
  std::cout << "\nnote: the paper's CAPS bar is missing from Fig. 12a "
               "because CAPS 3.4.0 never converged (temperature difference "
               "increased); our caps_like strategy model computes "
               "correctly, so its modeled time is shown for reference.\n";
  record.meta("iters", static_cast<std::int64_t>(iters));
  record.meta("tolerance", tol);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::tool_main(argc, argv, "fig12a_heat",
                         {}, {"iters", "sizes", "tol"}, run);
}
