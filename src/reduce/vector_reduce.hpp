// "Reduction only in vector" (§3.1.1, Fig. 4a / 5a / 6): the gang (k) and
// worker (j) loops run in parallel; each (k, j) instance reduces the vector
// loop (i). Every vector lane folds a private partial over its window of
// the i-space, partials are staged (shared row-contiguous = Fig. 6c,
// transposed = Fig. 6b, or global = §3.3 fallback), an in-block tree
// produces the row result, and lane 0 applies the instance's initial value
// and hands the result to the sink.
#pragma once

#include "reduce/strategy.hpp"

namespace accred::reduce {

template <typename T>
ReduceResult<T> run_vector_reduction(gpusim::Device& dev, Nest3 n,
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
  if (sc.staging == Staging::kShared) {
    sbuf = layout.add<T>(static_cast<std::size_t>(w) * v);
  } else {
    gstage = dev.alloc<T>(static_cast<std::size_t>(g) * w * v);
    gview = gstage.view();
  }

  auto kernel = [=, &b](gpusim::WarpCtx& wc) {
    const acc::RuntimeOp<T> rop{op};
    const detail::LaneCoords c(wc);
    const gpusim::LaneMask all = wc.lanes();
    const std::uint32_t bid = wc.blockIdx.x;

    // Gang loop: true while semantics (barriers inside stay uniform per
    // block). Worker loop: padded — its body runs a barrier-synchronized
    // tree per (k, j) instance.
    device_loop(sc.assignment, n.nk, bid, g, [&](std::int64_t k) {
      const LaneIndex kk = detail::splat(k);
      warp_assigned_loop(
          sc.assignment, n.nj, c.y, w, all,
          [&](const LaneIndex& j, gpusim::LaneMask ja) {
            gpusim::Lanes<T> priv;
            priv.fill(rop.identity());
            if (ja != 0) {
              auto prof = wc.prof_scope("private_partial");
              gpusim::Lanes<T> val{};
              warp_device_loop(
                  sc.assignment, n.ni, c.x, v, ja,
                  [&](gpusim::LaneMask m, const LaneIndex& i) {
                    detail::fold_step(wc, sc, b, rop, m, kk, j, i, priv, val);
                  });
            }

            gpusim::Lanes<std::size_t> gbase{};
            gpusim::Lanes<std::uint32_t> result_slot{};
            if (sc.staging == Staging::kShared) {
              gpusim::Lanes<std::uint32_t> slot{};
              if (sc.vector_layout == VectorLayout::kRowContiguous) {
                // Fig. 6c: row y holds its own lanes' partials contiguously.
                for (std::uint32_t l = 0; l < wc.width(); ++l) {
                  result_slot[l] = c.y[l] * v;
                  slot[l] = result_slot[l] + c.x[l];
                }
                {
                  auto prof = wc.prof_scope("staging");
                  wc.sts(all, sbuf, slot, priv);
                }
                block_tree_reduce(wc, sbuf, result_slot, v, 1, c.x, rop,
                                  sc.tree);
              } else {
                // Fig. 6b: transposed staging; each row's reduction becomes
                // a strided column walk (bank conflicts, no warp tail).
                for (std::uint32_t l = 0; l < wc.width(); ++l) {
                  slot[l] = c.x[l] * w + c.y[l];
                }
                {
                  auto prof = wc.prof_scope("staging");
                  wc.sts(all, sbuf, slot, priv);
                }
                block_tree_reduce(wc, sbuf, c.y, v, w, c.x, rop, sc.tree);
                result_slot = c.y;
              }
            } else {
              gpusim::Lanes<std::size_t> slot{};
              for (std::uint32_t l = 0; l < wc.width(); ++l) {
                gbase[l] = (static_cast<std::size_t>(bid) * w + c.y[l]) * v;
                slot[l] = gbase[l] + c.x[l];
              }
              {
                auto prof = wc.prof_scope("staging");
                wc.st(all, gview, slot, priv);
              }
              block_tree_reduce_global(wc, gview, gbase, v, c.x, rop, sc.tree);
            }
            auto prof = wc.prof_scope("finalize");
            const gpusim::LaneMask leads = gpusim::lanes_where(
                ja, [&](std::uint32_t l) { return c.x[l] == 0; });
            gpusim::Lanes<T> row_result{};
            if (sc.staging == Staging::kShared) {
              wc.lds(leads, sbuf, result_slot, row_result);
            } else {
              wc.ld(leads, gview, gbase, row_result);
            }
            detail::sink_lanes(b, rop, wc, leads, kk, j, row_result);
            wc.syncthreads();  // staging area is reused by the next instance
          });
    });
  };

  ReduceResult<T> res;
  res.stats = gpusim::launch(dev, {g}, {v, w}, layout.bytes(), kernel,
                             labeled_sim(sc.sim, "vector_reduce"));
  res.kernels = 1;
  return res;
}

}  // namespace accred::reduce
