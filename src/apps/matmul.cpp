#include "apps/matmul.hpp"

#include "acc/region.hpp"
#include "util/rng.hpp"

namespace accred::apps {

namespace {

void fill_inputs(const MatmulOptions& opts, std::vector<float>& a,
                 std::vector<float>& b) {
  const auto count = static_cast<std::size_t>(opts.n * opts.n);
  a.resize(count);
  b.resize(count);
  util::fill_uniform(std::span<float>(a), opts.seed, -1.0F, 1.0F);
  util::fill_uniform(std::span<float>(b), opts.seed + 1, -1.0F, 1.0F);
}

}  // namespace

MatmulResult run_matmul(const MatmulOptions& opts) {
  const std::int64_t n = opts.n;
  gpusim::Device dev;

  std::vector<float> host_a;
  std::vector<float> host_b;
  fill_inputs(opts, host_a, host_b);
  auto a = dev.alloc<float>(host_a.size());
  auto b = dev.alloc<float>(host_b.size());
  auto c = dev.alloc<float>(host_a.size());
  a.copy_from_host(host_a);
  b.copy_from_host(host_b);
  c.fill(0.0F);
  auto av = a.view();
  auto bv = b.view();
  auto cv = c.view();

  acc::Region region(dev, acc::profile(opts.compiler));
  region.parallel("parallel num_gangs(" +
                  std::to_string(opts.config.num_gangs) + ") num_workers(" +
                  std::to_string(opts.config.num_workers) +
                  ") vector_length(" +
                  std::to_string(opts.config.vector_length) + ")");
  // Fig. 13b: the inner product accumulates in the vector loop and is used
  // right after it (C[i*n+j] = c), inside the worker loop's body.
  region.loop("loop gang", n)
      .loop("loop worker", n)
      .loop("loop vector reduction(+:c)", n)
      .var("c", acc::DataType::kFloat, /*accum=*/2, /*use=*/1);

  reduce::Bindings<float> bind;
  bind.contrib = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t i,
                                      std::int64_t j, std::int64_t k) {
    const float x = ctx.ld(av, static_cast<std::size_t>(i * n + k));
    const float y = ctx.ld(bv, static_cast<std::size_t>(k * n + j));
    ctx.alu(2);  // multiply + index arithmetic (FMA disabled, §4)
    return x * y;
  });
  bind.sink = reduce::per_lane([=](gpusim::ThreadCtx& ctx, std::int64_t i,
                                   std::int64_t j, float r) {
    ctx.st(cv, static_cast<std::size_t>(i * n + j), r);
  });

  auto res = region.run<float>(bind);

  MatmulResult out;
  out.device_ms = res.stats.device_time_ns / 1e6;
  out.stats = res.stats;
  out.c.resize(host_a.size());
  c.copy_to_host(out.c);
  return out;
}

MatmulResult run_matmul_sequential_k(const MatmulOptions& opts) {
  const std::int64_t n = opts.n;
  gpusim::Device dev;

  std::vector<float> host_a;
  std::vector<float> host_b;
  fill_inputs(opts, host_a, host_b);
  auto a = dev.alloc<float>(host_a.size());
  auto b = dev.alloc<float>(host_b.size());
  auto c = dev.alloc<float>(host_a.size());
  a.copy_from_host(host_a);
  b.copy_from_host(host_b);
  c.fill(0.0F);
  auto av = a.view();
  auto bv = b.view();
  auto cv = c.view();

  const auto& cfg = opts.config;
  // i over gangs, j over the block's worker*vector threads, k serial —
  // the conventional mapping, as a plain Fig. 3 kernel. A warp kernel: per
  // k step, the lanes still inside the row (a prefix of the warp) load
  // A[i][k] and B[k][j] as warp ops.
  auto stats = gpusim::launch(
      dev, {cfg.num_gangs}, {cfg.vector_length, cfg.num_workers}, 0,
      [&, av, bv, cv](gpusim::WarpCtx& wc) {
        const std::int64_t threads = wc.blockDim.count();
        gpusim::Lanes<std::int64_t> tid{};
        for (std::uint32_t l = 0; l < wc.width(); ++l) {
          tid[l] = wc.linear_tid(l);
        }
        gpusim::Lanes<std::int64_t> at{};
        gpusim::Lanes<float> x{};
        gpusim::Lanes<float> y{};
        gpusim::Lanes<float> acc{};
        for (std::int64_t i = wc.blockIdx.x; i < n; i += wc.gridDim.x) {
          reduce::warp_device_loop(
              reduce::Assignment::kWindow, n, tid, threads, wc.lanes(),
              [&](gpusim::LaneMask m, const gpusim::Lanes<std::int64_t>& j) {
                gpusim::for_each_lane(m, [&](std::uint32_t l) { acc[l] = 0; });
                for (std::int64_t k = 0; k < n; ++k) {
                  at.fill(i * n + k);
                  wc.ld(m, av, at, x);
                  gpusim::for_each_lane(
                      m, [&](std::uint32_t l) { at[l] = k * n + j[l]; });
                  wc.ld(m, bv, at, y);
                  gpusim::for_each_lane(
                      m, [&](std::uint32_t l) { acc[l] += x[l] * y[l]; });
                  wc.alu(m, 3);
                }
                gpusim::for_each_lane(
                    m, [&](std::uint32_t l) { at[l] = i * n + j[l]; });
                wc.st(m, cv, at, acc);
              });
        }
      },
      gpusim::SimOptions{.label = "matmul_sequential_k"});

  MatmulResult out;
  out.device_ms = stats.device_time_ns / 1e6;
  out.stats = stats;
  out.c.resize(host_a.size());
  c.copy_to_host(out.c);
  return out;
}

std::vector<float> matmul_reference(const MatmulOptions& opts) {
  const std::int64_t n = opts.n;
  std::vector<float> a;
  std::vector<float> b;
  fill_inputs(opts, a, b);
  std::vector<float> c(static_cast<std::size_t>(n * n), 0.0F);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0F;
      for (std::int64_t k = 0; k < n; ++k) {
        acc += a[static_cast<std::size_t>(i * n + k)] *
               b[static_cast<std::size_t>(k * n + j)];
      }
      c[static_cast<std::size_t>(i * n + j)] = acc;
    }
  }
  return c;
}

}  // namespace accred::apps
