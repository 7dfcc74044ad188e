// "Reduction only in gang" (§3.1.3, Fig. 4c / 5c): the worker (j) and
// vector (i) loops run in parallel; the gang loop (k) carries the
// reduction. Thread blocks cannot synchronize with each other, so each
// block folds a private partial over its window of the k-space (window-
// sliding by default; the blocking baseline is selectable for the §3.1.3
// ablation), writes it to partial[blockIdx.x], and a second single-block
// kernel reduces the partials buffer.
#pragma once

#include "reduce/finalize.hpp"
#include "reduce/strategy.hpp"

namespace accred::reduce {

template <typename T>
ReduceResult<T> run_gang_reduction(gpusim::Device& dev, Nest3 n,
                                   const acc::LaunchConfig& cfg,
                                   acc::ReductionOp op, const Bindings<T>& b,
                                   const StrategyConfig& sc = {}) {
  const std::uint32_t g = cfg.num_gangs;
  const std::uint32_t w = cfg.num_workers;
  const std::uint32_t v = cfg.vector_length;

  auto partial = dev.alloc<T>(g);
  auto pview = partial.view();

  auto kernel = [=, &b](gpusim::WarpCtx& wc) {
    const acc::RuntimeOp<T> rop{op};
    const detail::LaneCoords c(wc);
    const gpusim::LaneMask all = wc.lanes();
    const std::uint32_t bid = wc.blockIdx.x;

    gpusim::Lanes<T> priv;
    priv.fill(rop.identity());
    gpusim::Lanes<T> val{};
    auto prof = wc.prof_scope("private_partial");
    device_loop(sc.assignment, n.nk, bid, g, [&](std::int64_t k) {
      const LaneIndex kk = detail::splat(k);
      // Inner worker/vector loops: non-reduction parallel work.
      if (b.parallel_work) {
        warp_device_loop(
            sc.assignment, n.nj, c.y, w, all,
            [&](gpusim::LaneMask mj, const LaneIndex& j) {
              warp_device_loop(sc.assignment, n.ni, c.x, v, mj,
                               [&](gpusim::LaneMask mi, const LaneIndex& i) {
                                 wc.alu(mi, 2);
                                 b.parallel_work(wc, mi, kk, j, i);
                               });
            });
      }
      // Every thread of the block folds the same contribution (Fig. 5c:
      // `sum_priv += temp[k][0][0]` sits outside the inner loops); only
      // thread (0,0) publishes.
      b.contrib(wc, all, kk, detail::kNoIndex, detail::kNoIndex, val);
      detail::fold_lanes(rop, all, priv, val);
      wc.alu(all, 3);
      detail::touch_spill(wc, all, sc, sizeof(T));
    });
    prof = {};
    auto stage = wc.prof_scope("staging");
    gpusim::Lanes<std::uint32_t> slot;
    slot.fill(bid);
    wc.st(gpusim::lanes_where(
              all,
              [&](std::uint32_t l) { return c.x[l] == 0 && c.y[l] == 0; }),
          pview, slot, priv);
  };

  ReduceResult<T> res;
  res.stats =
      gpusim::launch(dev, {g}, {v, w}, 0, kernel,
                     labeled_sim(sc.sim, "gang_partial"));
  res.kernels = 1;

  const T fold =
      finalize_to_host(dev, pview, g, op, sc, res.stats, res.kernels);
  res.scalar = detail::fold_host_init(b, acc::RuntimeOp<T>{op}, fold);
  return res;
}

}  // namespace accred::reduce
