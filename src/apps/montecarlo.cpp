#include "apps/montecarlo.hpp"

#include <vector>

#include "acc/region.hpp"
#include "util/rng.hpp"

namespace accred::apps {

namespace {

void fill_coords(const MonteCarloOptions& opts, std::vector<double>& x,
                 std::vector<double>& y) {
  x.resize(static_cast<std::size_t>(opts.samples));
  y.resize(static_cast<std::size_t>(opts.samples));
  util::fill_uniform(std::span<double>(x), opts.seed, -1.0, 1.0);
  util::fill_uniform(std::span<double>(y), opts.seed + 1, -1.0, 1.0);
}

}  // namespace

MonteCarloResult run_montecarlo(const MonteCarloOptions& opts) {
  gpusim::Device dev;
  std::vector<double> host_x;
  std::vector<double> host_y;
  fill_coords(opts, host_x, host_y);

  auto x = dev.alloc<double>(host_x.size());
  auto y = dev.alloc<double>(host_y.size());
  x.copy_from_host(host_x);
  y.copy_from_host(host_y);
  auto xv = x.view();
  auto yv = y.view();

  acc::Region region(dev, acc::profile(opts.compiler));
  region.parallel("parallel num_gangs(" +
                  std::to_string(opts.config.num_gangs) +
                  ") vector_length(" +
                  std::to_string(opts.config.vector_length) +
                  ") copyin(x[0:n], y[0:n])");
  // Fig. 13c: one loop distributed over gang and vector, reduction(+:m).
  region.loop("loop gang vector reduction(+:m)", opts.samples)
      .var("m", acc::DataType::kInt64, /*accum=*/0, acc::VarInfo::kHostUse);

  reduce::Bindings<std::int64_t> b;
  b.contrib = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t idx,
                                   std::int64_t, std::int64_t) -> std::int64_t {
    const double px = ctx.ld(xv, static_cast<std::size_t>(idx));
    const double py = ctx.ld(yv, static_cast<std::size_t>(idx));
    ctx.alu(4);  // two multiplies, add, compare (FMA disabled, §4)
    return (px * px + py * py < 1.0) ? 1 : 0;
  });

  auto res = region.run<std::int64_t>(b);

  MonteCarloResult out;
  out.hits = res.scalar.value_or(0);
  out.pi_estimate =
      4.0 * static_cast<double>(out.hits) / static_cast<double>(opts.samples);
  out.device_ms = res.stats.device_time_ns / 1e6;
  out.transfer_ms = dev.transfers().h2d_time_ns / 1e6;
  out.stats = res.stats;
  return out;
}

std::int64_t montecarlo_reference_hits(const MonteCarloOptions& opts) {
  std::vector<double> x;
  std::vector<double> y;
  fill_coords(opts, x, y);
  std::int64_t hits = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] * x[i] + y[i] * y[i] < 1.0) ++hits;
  }
  return hits;
}

}  // namespace accred::apps
