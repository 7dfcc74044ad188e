// Quickstart: sum a vector on the simulated GPU through the OpenACC-style
// front door — directive text in, verified scalar out — then peek at the
// modeled Kepler cost and at what the other compiler profiles would do.
//
//   ./quickstart [--n elements]
#include <iostream>
#include <numeric>
#include <vector>

#include "acc/region.hpp"
#include "gpusim/stats_io.hpp"
#include "util/main_guard.hpp"

namespace {

using namespace accred;

int run(const util::Cli& cli, obs::RunRecord&) {
  const std::int64_t n = cli.get_int("n", 1 << 20);

  // 1. A device and some data.
  gpusim::Device dev;
  std::vector<double> host(static_cast<std::size_t>(n));
  std::iota(host.begin(), host.end(), 1.0);
  auto data = dev.alloc<double>(host.size());
  data.copy_from_host(host);
  auto view = data.view();

  // 2. Describe the loop the OpenACC way. This is the library form of
  //
  //      #pragma acc parallel num_gangs(192) vector_length(128)
  //      #pragma acc loop gang vector reduction(+:total)
  //      for (i = 0; i < n; i++) total += data[i];
  //
  acc::Region region(dev);
  region.parallel("parallel num_gangs(192) vector_length(128)")
      .loop("loop gang vector reduction(+:total)", n)
      .var("total", acc::DataType::kDouble, /*accum_level=*/0);

  // 3. The loop body, as a callable over cost-modeled device memory.
  reduce::Bindings<double> body;
  body.contrib = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t i,
                                      std::int64_t, std::int64_t) {
    return ctx.ld(view, static_cast<std::size_t>(i));
  });

  // 4. Plan (see which strategy the compiler picked), then run.
  const acc::ExecutionPlan plan = region.plan();
  std::cout << "strategy: " << to_string(plan.kind) << ", kernels: "
            << plan.kernel_count << ", partials buffer: "
            << plan.global_buffer_elems << " elements\n";

  const auto result = region.run<double>(body);
  const double expected = static_cast<double>(n) * (n + 1) / 2.0;
  std::cout << "sum(1..n)   = " << *result.scalar << " (expected "
            << expected << ")\n";
  gpusim::print_launch_stats(std::cout, result.stats, "reduction");
  std::cout << '\n';

  // 5. The same loop through the modeled commercial compilers.
  for (acc::CompilerId id :
       {acc::CompilerId::kPgiLike, acc::CompilerId::kCapsLike}) {
    acc::Region other(dev, acc::profile(id));
    other.parallel("parallel num_gangs(192) vector_length(128)")
        .loop("loop gang vector reduction(+:total)", n)
        .var("total", acc::DataType::kDouble, 0);
    const auto r = other.run<double>(body);
    std::cout << to_string(id) << ": same result " << *r.scalar
              << ", modeled time " << r.stats.device_time_ns / 1e6
              << " ms\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::tool_main(argc, argv, "quickstart", {}, {"n"}, run);
}
