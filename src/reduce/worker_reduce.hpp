// "Reduction only in worker" (§3.1.2, Fig. 4b / 5b / 8): the gang (k) and
// vector (i) loops run in parallel; each k instance reduces the worker
// loop (j). Every worker folds a private partial over its window of the
// j-space (all vector lanes compute it redundantly, as in Fig. 5b), the W
// partials are staged, and a small tree finishes:
//   * Fig. 8c (OpenUH): lane x==0 publishes sbuf[y]; the first row's
//     vector lanes — warp threads — reduce the W values with no extra
//     block barriers in the tail,
//   * Fig. 8b: every thread stages transposed so each of the V rows holds
//     a duplicate copy of the W partials; every row reduces it with block
//     barriers each step (more shared memory, more synchronization).
#pragma once

#include "reduce/strategy.hpp"

namespace accred::reduce {

template <typename T>
ReduceResult<T> run_worker_reduction(gpusim::Device& dev, Nest3 n,
                                     const acc::LaunchConfig& cfg,
                                     acc::ReductionOp op,
                                     const Bindings<T>& b,
                                     const StrategyConfig& sc = {}) {
  const std::uint32_t g = cfg.num_gangs;
  const std::uint32_t w = cfg.num_workers;
  const std::uint32_t v = cfg.vector_length;

  gpusim::SharedLayout layout;
  gpusim::SharedView<T> sbuf;
  gpusim::DeviceBuffer<T> gstage;
  gpusim::GlobalView<T> gview{};
  const bool duplicated = sc.worker_layout == WorkerLayout::kDuplicatedRows;
  if (sc.staging == Staging::kShared) {
    sbuf = layout.add<T>(duplicated ? static_cast<std::size_t>(v) * w : w);
  } else {
    gstage = dev.alloc<T>(static_cast<std::size_t>(g) * w);
    gview = gstage.view();
  }

  // The duplicated-rows layout reduces rows based at x*w — not warp
  // aligned — so its tree must keep block-wide barriers (the paper's
  // stated drawback of Fig. 8b).
  TreeOptions dup_tree = sc.tree;
  dup_tree.unroll_last_warp = false;

  auto kernel = [=, &b](gpusim::WarpCtx& wc) {
    const acc::RuntimeOp<T> rop{op};
    const detail::LaneCoords c(wc);
    const gpusim::LaneMask all = wc.lanes();
    const std::uint32_t bid = wc.blockIdx.x;
    const gpusim::LaneMask lead = gpusim::lanes_where(
        all, [&](std::uint32_t l) { return c.x[l] == 0 && c.y[l] == 0; });
    const gpusim::LaneMask first_lanes =
        gpusim::lanes_where(all, [&](std::uint32_t l) { return c.x[l] == 0; });
    // Participants of the first-row tree: the first row's vector lanes.
    gpusim::Lanes<std::uint32_t> first_row{};
    for (std::uint32_t l = 0; l < wc.width(); ++l) {
      first_row[l] = c.y[l] == 0 ? c.x[l] : ~std::uint32_t{0};
    }

    device_loop(sc.assignment, n.nk, bid, g, [&](std::int64_t k) {
      const LaneIndex kk = detail::splat(k);
      gpusim::Lanes<T> priv;
      priv.fill(rop.identity());
      {
        auto prof = wc.prof_scope("private_partial");
        gpusim::Lanes<T> val{};
        warp_device_loop(
            sc.assignment, n.nj, c.y, w, all,
            [&](gpusim::LaneMask mj, const LaneIndex& j) {
              // Inner vector loop: non-reduction parallel work.
              if (b.parallel_work) {
                warp_device_loop(sc.assignment, n.ni, c.x, v, mj,
                                 [&](gpusim::LaneMask mi, const LaneIndex& i) {
                                   wc.alu(mi, 2);
                                   b.parallel_work(wc, mi, kk, j, i);
                                 });
              }
              b.contrib(wc, mj, kk, j, detail::kNoIndex, val);
              detail::fold_lanes(rop, mj, priv, val);
              wc.alu(mj, 3);
              detail::touch_spill(wc, mj, sc, sizeof(T));
            });
      }

      if (sc.staging == Staging::kShared) {
        if (duplicated) {
          // Fig. 8b: thread (x, y) stores worker y's value into row x.
          gpusim::Lanes<std::uint32_t> row{};
          gpusim::Lanes<std::uint32_t> slot{};
          for (std::uint32_t l = 0; l < wc.width(); ++l) {
            row[l] = c.x[l] * w;
            slot[l] = row[l] + c.y[l];
          }
          {
            auto prof = wc.prof_scope("staging");
            wc.sts(all, sbuf, slot, priv);
          }
          block_tree_reduce(wc, sbuf, row, w, 1, c.y, rop, dup_tree);
        } else {
          // Fig. 8c: only the first vector lane of each worker publishes.
          {
            auto prof = wc.prof_scope("staging");
            wc.sts(first_lanes, sbuf, c.y, priv);
          }
          block_tree_reduce(wc, sbuf, {}, w, 1, first_row, rop, sc.tree);
        }
        auto prof = wc.prof_scope("finalize");
        gpusim::Lanes<T> result{};
        wc.lds(lead, sbuf, gpusim::Lanes<std::uint32_t>{}, result);
        detail::sink_lanes(b, rop, wc, lead, kk, detail::kNoIndex, result);
      } else {
        const std::size_t base = static_cast<std::size_t>(bid) * w;
        gpusim::Lanes<std::size_t> bases;
        bases.fill(base);
        gpusim::Lanes<std::size_t> slot{};
        for (std::uint32_t l = 0; l < wc.width(); ++l) slot[l] = base + c.y[l];
        {
          auto prof = wc.prof_scope("staging");
          wc.st(first_lanes, gview, slot, priv);
        }
        block_tree_reduce_global(wc, gview, bases, w, first_row, rop, sc.tree);
        auto prof = wc.prof_scope("finalize");
        gpusim::Lanes<T> result{};
        wc.ld(lead, gview, bases, result);
        detail::sink_lanes(b, rop, wc, lead, kk, detail::kNoIndex, result);
      }
      auto prof = wc.prof_scope("finalize");
      wc.syncthreads();  // staging area reused by the next k instance
    });
  };

  ReduceResult<T> res;
  res.stats = gpusim::launch(dev, {g}, {v, w}, layout.bytes(), kernel,
                             labeled_sim(sc.sim, "worker_reduce"));
  res.kernels = 1;
  return res;
}

}  // namespace accred::reduce
