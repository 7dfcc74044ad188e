// Histogram via the array-reduction extension (§5's Komoda et al. feature:
// OpenACC of the paper's era only allowed scalar reduction variables, so
// "every element of an array needs to do reduction" had no spelling — this
// library lifts the paper's scalar machinery to arrays).
//
//   ./histogram [--n samples] [--bins B]
#include <iostream>

#include "reduce/array_reduce.hpp"
#include "util/main_guard.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace accred;

int run(const util::Cli& cli, obs::RunRecord&) {
  const std::int64_t n = cli.get_int("n", 1 << 20);
  const auto bins = static_cast<std::size_t>(cli.get_int("bins", 16));

  gpusim::Device dev;
  auto data = dev.alloc<double>(static_cast<std::size_t>(n));
  util::fill_uniform(data.host_span(), 7, 0.0, 1.0);
  auto dv = data.view();

  // Equivalent directive (extension syntax):
  //   #pragma acc loop gang vector reduction(+:hist[0:bins])
  auto res = reduce::run_array_reduction<std::int64_t>(
      dev, n, bins, {}, acc::ReductionOp::kSum,
      [=](gpusim::ThreadCtx& ctx, std::int64_t i,
          reduce::ArrayAccum<std::int64_t>& hist) {
        const double v = ctx.ld(dv, static_cast<std::size_t>(i));
        hist.add(std::min(bins - 1,
                          static_cast<std::size_t>(v * double(bins))),
                 1);
      });

  std::cout << "histogram of " << n << " uniform samples over " << bins
            << " bins (modeled GPU time "
            << res.stats.device_time_ns / 1e6 << " ms, " << res.kernels
            << " kernels)\n\n";
  util::TextTable t;
  t.header({"bin", "count", "bar"});
  std::int64_t total = 0;
  for (std::size_t b = 0; b < bins; ++b) {
    total += res.values[b];
    const auto stars = static_cast<std::size_t>(
        res.values[b] * 48 / (n / static_cast<std::int64_t>(bins)));
    t.row({std::to_string(b), std::to_string(res.values[b]),
           std::string(std::min<std::size_t>(stars, 60), '*')});
  }
  t.print(std::cout);
  std::cout << "\ntotal counted: " << total << " (expected " << n << ")\n";
  return total == n ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return util::tool_main(argc, argv, "histogram", {}, {"n", "bins"}, run);
}
