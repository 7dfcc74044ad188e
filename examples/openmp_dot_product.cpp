// Dot product through the OpenMP 4.0 facade (§6 of the paper: the same
// reduction machinery applies to OpenMP's two-level hierarchy — teams map
// to gangs, parallel-for/simd threads to vector lanes, and the worker
// level is simply ignored).
//
//   ./openmp_dot_product [--n elements]
#include <iostream>

#include "acc/openmp.hpp"
#include "gpusim/pool.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

#include "util/main_guard.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace accred;
  const util::Cli cli(argc, argv);
  gpusim::set_default_sim_threads(cli.get_uint32("sim-threads", 0));
  const std::int64_t n = cli.get_int("n", 1 << 20);

  gpusim::Device dev;
  auto x = dev.alloc<double>(static_cast<std::size_t>(n));
  auto y = dev.alloc<double>(static_cast<std::size_t>(n));
  util::fill_uniform(x.host_span(), 1, -1.0, 1.0);
  util::fill_uniform(y.host_span(), 2, -1.0, 1.0);
  auto xv = x.view();
  auto yv = y.view();

  // The library form of the combined construct
  //   "#pragma omp target teams distribute parallel for simd
  //    num_teams(192) num_threads(128) reduction(+:dot) map(...)"
  acc::OmpTarget target(dev);
  target.loop("omp target teams distribute parallel for simd num_teams(192) "
              "num_threads(128) reduction(+:dot) map(to: x[0:n], y[0:n])",
              n)
      .var("dot", acc::DataType::kDouble, /*accum_level=*/0);

  const auto plan = target.plan();
  std::cout << "OpenMP mapping: strategy " << to_string(plan.kind) << ", "
            << plan.launch.num_gangs << " teams x "
            << plan.launch.vector_length
            << " threads (workers = " << plan.launch.num_workers
            << ", ignored per the paper's ss6)\n";

  reduce::Bindings<double> b;
  b.contrib = [=](gpusim::ThreadCtx& ctx, std::int64_t i, std::int64_t,
                  std::int64_t) {
    ctx.alu(1);  // the multiply (FMA disabled)
    return ctx.ld(xv, std::size_t(i)) * ctx.ld(yv, std::size_t(i));
  };
  const auto res = target.run<double>(b);

  double host_dot = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    host_dot += x.host_span()[std::size_t(i)] * y.host_span()[std::size_t(i)];
  }
  std::cout << "device dot = " << *res.scalar << "\nhost   dot = " << host_dot
            << "\nmodeled GPU time: " << res.stats.device_time_ns / 1e6
            << " ms over " << res.kernels << " kernels\n";
  return std::abs(*res.scalar - host_dot) < 1e-6 * n ? 0 : 1;
}

}  // namespace

// All benches, examples, and tools share one top-level exception guard:
// any escaping error prints a structured line and exits non-zero instead
// of crashing (util/main_guard.hpp).
int main(int argc, char** argv) {
  return accred::util::guarded_main([&] { return run(argc, argv); });
}
