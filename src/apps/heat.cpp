#include "apps/heat.hpp"

#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

#include "acc/region.hpp"

namespace accred::apps {

namespace {

/// Initialize the grid: boundary at `hot` along the top edge, 0 elsewhere
/// (the classic configuration of the course notes the paper cites).
void init_grid(std::vector<double>& t, std::int64_t ni, std::int64_t nj,
               double hot) {
  t.assign(static_cast<std::size_t>(ni * nj), 0.0);
  for (std::int64_t i = 0; i < ni; ++i) {
    t[static_cast<std::size_t>(i)] = hot;  // row j = 0
  }
}

}  // namespace

HeatResult run_heat(const HeatOptions& opts) {
  const std::int64_t ni = opts.ni;
  const std::int64_t nj = opts.nj;
  gpusim::Device dev;

  std::vector<double> host_init;
  init_grid(host_init, ni, nj, opts.boundary_temperature);
  auto t1 = dev.alloc<double>(host_init.size());
  auto t2 = dev.alloc<double>(host_init.size());
  t1.copy_from_host(host_init);
  t2.copy_from_host(host_init);

  // Plan the Fig. 13a reduction once: gang over rows, vector over columns,
  // max-reduction consumed on the host each iteration.
  const acc::CompilerProfile& prof = acc::profile(opts.compiler);
  acc::Region region(dev, prof);
  region.parallel("parallel num_gangs(" +
                  std::to_string(opts.config.num_gangs) + ") vector_length(" +
                  std::to_string(opts.config.vector_length) + ")");
  // A user of the explicit-clause discipline (CAPS) must annotate every
  // spanned loop; the auto-detecting compilers take one clause (Fig. 9).
  const bool explicit_clauses =
      prof.discipline == acc::ClauseDiscipline::kExplicitAllLevels;
  region.loop("loop gang reduction(max:error)", 1, nj - 1)
      .loop(explicit_clauses ? "loop vector reduction(max:error)"
                             : "loop vector",
            1, ni - 1)
      .var("error", acc::DataType::kDouble, /*accum=*/1,
           acc::VarInfo::kHostUse);
  // Compile once (plan + start offsets); run per iteration.
  const acc::Region::Compiled reduction = region.compile();

  HeatResult res;
  gpusim::GlobalView<double> cur = t1.view();
  gpusim::GlobalView<double> nxt = t2.view();

  for (int it = 0; it < opts.max_iterations; ++it) {
    // Stencil update: ordinary gang/vector parallel kernel (Fig. 3
    // mapping), identical for every compiler profile. A warp kernel: per
    // window step, the lanes still inside the row (a prefix of the warp)
    // load their four neighbours and store the average as warp ops.
    auto update_stats = gpusim::launch(
        dev, {opts.config.num_gangs}, {opts.config.vector_length}, 0,
        [&](gpusim::WarpCtx& wc) {
          gpusim::Lanes<std::int64_t> col{};
          for (std::uint32_t l = 0; l < wc.width(); ++l) {
            col[l] = wc.threadIdx(l).x + 1;
          }
          const auto row = static_cast<std::size_t>(ni);
          gpusim::Lanes<std::size_t> c{};
          gpusim::Lanes<std::size_t> at{};
          std::array<gpusim::Lanes<double>, 4> nb{};
          for (std::int64_t j = wc.blockIdx.x + 1; j < nj - 1;
               j += wc.gridDim.x) {
            reduce::warp_device_loop(
                reduce::Assignment::kWindow, ni - 1, col, wc.blockDim.x,
                wc.lanes(),
                [&](gpusim::LaneMask m, const gpusim::Lanes<std::int64_t>& i) {
                  gpusim::for_each_lane(m, [&](std::uint32_t l) {
                    c[l] = static_cast<std::size_t>(j * ni + i[l]);
                  });
                  const std::array<std::ptrdiff_t, 4> offsets = {
                      -1, 1, -static_cast<std::ptrdiff_t>(row),
                      static_cast<std::ptrdiff_t>(row)};
                  for (std::size_t n = 0; n < 4; ++n) {
                    gpusim::for_each_lane(m, [&](std::uint32_t l) {
                      at[l] = c[l] + static_cast<std::size_t>(offsets[n]);
                    });
                    wc.ld(m, cur, at, nb[n]);
                  }
                  gpusim::Lanes<double> v{};
                  gpusim::for_each_lane(m, [&](std::uint32_t l) {
                    v[l] = 0.25 * (nb[0][l] + nb[1][l] + nb[2][l] + nb[3][l]);
                  });
                  wc.st(m, nxt, c, v);
                  wc.alu(m, 6);
                });
          }
        },
        gpusim::SimOptions{.label = "heat_update"});
    res.update_device_ms += update_stats.device_time_ns / 1e6;

    // Convergence check: the paper's max reduction (Fig. 13a), two warp
    // loads per lane-vector of iterations.
    reduce::Bindings<double> b;
    b.contrib = [&, cur, nxt](gpusim::WarpCtx& wc, gpusim::LaneMask m,
                              const reduce::LaneIndex& j,
                              const reduce::LaneIndex&,
                              const reduce::LaneIndex& i,
                              gpusim::Lanes<double>& out) {
      // j, i arrive in the original [1, n-1) ranges (Fig. 3 start offsets).
      gpusim::Lanes<std::size_t> c{};
      gpusim::for_each_lane(m, [&](std::uint32_t l) {
        c[l] = static_cast<std::size_t>(j[l] * ni + i[l]);
      });
      wc.alu(m, 2);
      gpusim::Lanes<double> next{};
      wc.ld(m, cur, c, out);
      wc.ld(m, nxt, c, next);
      gpusim::for_each_lane(
          m, [&](std::uint32_t l) { out[l] = std::fabs(out[l] - next[l]); });
    };
    auto red = reduction.run<double>(b);
    res.reduction_device_ms += red.stats.device_time_ns / 1e6;
    res.reduction_stats += red.stats;
    res.final_error = red.scalar.value_or(0.0);
    res.iterations = it + 1;

    std::swap(cur, nxt);
    if (res.final_error < opts.tolerance) {
      res.converged = true;
      break;
    }
  }
  res.total_device_ms = res.update_device_ms + res.reduction_device_ms;
  return res;
}

HeatResult run_heat_reference(const HeatOptions& opts) {
  const std::int64_t ni = opts.ni;
  const std::int64_t nj = opts.nj;
  std::vector<double> cur;
  std::vector<double> nxt;
  init_grid(cur, ni, nj, opts.boundary_temperature);
  nxt = cur;

  HeatResult res;
  for (int it = 0; it < opts.max_iterations; ++it) {
    double err = 0;
    for (std::int64_t j = 1; j < nj - 1; ++j) {
      for (std::int64_t i = 1; i < ni - 1; ++i) {
        const auto c = static_cast<std::size_t>(j * ni + i);
        nxt[c] = 0.25 * (cur[c - 1] + cur[c + 1] +
                         cur[c - static_cast<std::size_t>(ni)] +
                         cur[c + static_cast<std::size_t>(ni)]);
      }
    }
    for (std::int64_t j = 1; j < nj - 1; ++j) {
      for (std::int64_t i = 1; i < ni - 1; ++i) {
        const auto c = static_cast<std::size_t>(j * ni + i);
        err = std::max(err, std::fabs(cur[c] - nxt[c]));
      }
    }
    cur.swap(nxt);
    res.final_error = err;
    res.iterations = it + 1;
    if (err < opts.tolerance) {
      res.converged = true;
      break;
    }
  }
  return res;
}

}  // namespace accred::apps
