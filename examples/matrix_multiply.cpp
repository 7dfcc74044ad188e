// Naive matrix multiplication with the inner product as a vector
// reduction (the paper's Fig. 13b): "most developers only parallelize the
// outer two loops ... however we can also parallelize the third loop
// because essentially it just includes the sum reduction operations."
//
//   ./matrix_multiply [--n size] [--no-verify] [--json F] [--trace F]
#include <cmath>
#include <iostream>

#include "apps/matmul.hpp"
#include "gpusim/pool.hpp"
#include "obs/record.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

#include "util/main_guard.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace accred;
  const util::Cli cli(argc, argv, {"no-verify"});
  gpusim::set_default_sim_threads(cli.get_uint32("sim-threads", 0));

  obs::Session obs(cli, "matrix_multiply");
  apps::MatmulOptions opts;
  opts.n = cli.get_int("n", 96);

  std::cout << "matmul " << opts.n << "x" << opts.n
            << ", k loop mapped to a vector '+' reduction\n\n";

  util::TextTable table;
  table.header({"compiler", "device ms", "bank factor", "max |err|"});
  std::vector<float> ref;
  if (!cli.has("no-verify")) ref = apps::matmul_reference(opts);

  for (acc::CompilerId id :
       {acc::CompilerId::kOpenUH, acc::CompilerId::kCapsLike}) {
    opts.compiler = id;
    const apps::MatmulResult r = apps::run_matmul(opts);
    double max_err = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      max_err = std::max(max_err,
                         static_cast<double>(std::fabs(r.c[i] - ref[i])));
    }
    table.row({std::string(to_string(id)), util::TextTable::num(r.device_ms),
               util::TextTable::num(gpusim::bank_conflict_factor(r.stats)),
               ref.empty() ? "skipped" : util::TextTable::num(max_err, 6)});
    obs::BenchEntry& e = obs.record()
                             .entry(std::string(to_string(id)))
                             .metric("device_ms", r.device_ms)
                             .stats(r.stats);
    if (!ref.empty()) e.metric("max_abs_err", max_err);
  }
  table.print(std::cout);
  std::cout << "\n(pgi_like is omitted: PGI 13.10 failed the vector '+' "
               "reduction, Table 2 / Fig. 12b.)\n";
  return obs.finish() ? 0 : 1;
}

}  // namespace

// All benches, examples, and tools share one top-level exception guard:
// any escaping error prints a structured line and exits non-zero instead
// of crashing (util/main_guard.hpp).
int main(int argc, char** argv) {
  return accred::util::guarded_main([&] { return run(argc, argv); });
}
