// Reduction across Multi-level Parallelism (§3.2). OpenUH's strategy is to
// flatten every thread participating in the reduction into one staging
// buffer — shared when the span stays inside a block (worker & vector),
// global plus a second kernel as soon as gangs participate — and reduce
// that buffer with one tree. §3.2.1's alternative ("perform the reduction
// level by level, in order") is also implemented, as the ablation target
// the paper argues against (it multiplies synchronizations).
#pragma once

#include "reduce/finalize.hpp"
#include "reduce/strategy.hpp"

namespace accred::reduce {

/// Worker&vector span in different loops (Fig. 9): for each gang instance
/// k, all W*V threads fold privates over their (j, i) windows, stage into
/// one W*V-element buffer, and a block-wide tree yields the per-k result.
template <typename T>
ReduceResult<T> run_worker_vector_reduction(gpusim::Device& dev, Nest3 n,
                                            const acc::LaunchConfig& cfg,
                                            acc::ReductionOp op,
                                            const Bindings<T>& b,
                                            const StrategyConfig& sc = {}) {
  const std::uint32_t g = cfg.num_gangs;
  const std::uint32_t w = cfg.num_workers;
  const std::uint32_t v = cfg.vector_length;
  const std::uint32_t nthreads = w * v;

  gpusim::SharedLayout layout;
  gpusim::SharedView<T> sbuf;
  gpusim::DeviceBuffer<T> gstage;
  gpusim::GlobalView<T> gview{};
  if (sc.staging == Staging::kShared) {
    sbuf = layout.add<T>(nthreads);
  } else {
    gstage = dev.alloc<T>(static_cast<std::size_t>(g) * nthreads);
    gview = gstage.view();
  }

  auto kernel = [=, &b](gpusim::WarpCtx& wc) {
    const acc::RuntimeOp<T> rop{op};
    const detail::LaneCoords c(wc);
    const gpusim::LaneMask all = wc.lanes();
    const std::uint32_t bid = wc.blockIdx.x;
    const gpusim::LaneMask lead = gpusim::lanes_where(
        all, [&](std::uint32_t l) { return c.tid[l] == 0; });

    device_loop(sc.assignment, n.nk, bid, g, [&](std::int64_t k) {
      const LaneIndex kk = detail::splat(k);
      gpusim::Lanes<T> priv;
      priv.fill(rop.identity());
      {
        auto prof = wc.prof_scope("private_partial");
        detail::fold_rows(wc, sc, n, w, v, c, all, kk, b, rop, priv);
      }
      if (sc.staging == Staging::kShared) {
        {
          auto prof = wc.prof_scope("staging");
          wc.sts(all, sbuf, c.tid, priv);
        }
        block_tree_reduce(wc, sbuf, {}, nthreads, 1, c.tid, rop, sc.tree);
        auto prof = wc.prof_scope("finalize");
        gpusim::Lanes<T> result{};
        wc.lds(lead, sbuf, gpusim::Lanes<std::uint32_t>{}, result);
        detail::sink_lanes(b, rop, wc, lead, kk, detail::kNoIndex, result);
      } else {
        const std::size_t base = static_cast<std::size_t>(bid) * nthreads;
        gpusim::Lanes<std::size_t> bases;
        bases.fill(base);
        gpusim::Lanes<std::size_t> slot{};
        for (std::uint32_t l = 0; l < wc.width(); ++l) {
          slot[l] = base + c.tid[l];
        }
        {
          auto prof = wc.prof_scope("staging");
          wc.st(all, gview, slot, priv);
        }
        block_tree_reduce_global(wc, gview, bases, nthreads, c.tid, rop,
                                 sc.tree);
        auto prof = wc.prof_scope("finalize");
        gpusim::Lanes<T> result{};
        wc.ld(lead, gview, bases, result);
        detail::sink_lanes(b, rop, wc, lead, kk, detail::kNoIndex, result);
      }
      auto prof = wc.prof_scope("finalize");
      wc.syncthreads();
    });
  };

  ReduceResult<T> res;
  res.stats = gpusim::launch(dev, {g}, {v, w}, layout.bytes(), kernel,
                             labeled_sim(sc.sim, "rmp_wv_flat"));
  res.kernels = 1;
  return res;
}

/// §3.2.1's ordered alternative for the worker&vector span: per j instance
/// a vector tree, then a worker tree per k — "this approach needs to
/// perform reduction multiple times and therefore more synchronizations".
template <typename T>
ReduceResult<T> run_worker_vector_reduction_ordered(
    gpusim::Device& dev, Nest3 n, const acc::LaunchConfig& cfg,
    acc::ReductionOp op, const Bindings<T>& b, const StrategyConfig& sc = {}) {
  const std::uint32_t g = cfg.num_gangs;
  const std::uint32_t w = cfg.num_workers;
  const std::uint32_t v = cfg.vector_length;

  gpusim::SharedLayout layout;
  auto sbuf = layout.add<T>(static_cast<std::size_t>(w) * v);
  auto wbuf = layout.add<T>(w);

  auto kernel = [=, &b](gpusim::WarpCtx& wc) {
    const acc::RuntimeOp<T> rop{op};
    const detail::LaneCoords c(wc);
    const gpusim::LaneMask all = wc.lanes();
    const std::uint32_t bid = wc.blockIdx.x;
    const gpusim::LaneMask first_lanes =
        gpusim::lanes_where(all, [&](std::uint32_t l) { return c.x[l] == 0; });
    const gpusim::LaneMask lead = gpusim::lanes_where(
        all, [&](std::uint32_t l) { return c.x[l] == 0 && c.y[l] == 0; });
    gpusim::Lanes<std::uint32_t> row{};
    gpusim::Lanes<std::uint32_t> slot{};
    gpusim::Lanes<std::uint32_t> first_row{};
    for (std::uint32_t l = 0; l < wc.width(); ++l) {
      row[l] = c.y[l] * v;
      slot[l] = row[l] + c.x[l];
      first_row[l] = c.y[l] == 0 ? c.x[l] : ~std::uint32_t{0};
    }

    gpusim::Lanes<T> r{};
    device_loop(sc.assignment, n.nk, bid, g, [&](std::int64_t k) {
      const LaneIndex kk = detail::splat(k);
      gpusim::Lanes<T> wpriv;
      wpriv.fill(rop.identity());
      // Padded: the body stages + trees per j instance (barriers inside).
      warp_assigned_loop(
          sc.assignment, n.nj, c.y, w, all,
          [&](const LaneIndex& j, gpusim::LaneMask ja) {
            gpusim::Lanes<T> vpriv;
            vpriv.fill(rop.identity());
            if (ja != 0) {
              auto prof = wc.prof_scope("private_partial");
              gpusim::Lanes<T> val{};
              warp_device_loop(
                  sc.assignment, n.ni, c.x, v, ja,
                  [&](gpusim::LaneMask m, const LaneIndex& i) {
                    detail::fold_step(wc, sc, b, rop, m, kk, j, i, vpriv,
                                      val);
                  });
            }
            // Vector tree per row, once per j instance.
            {
              auto prof = wc.prof_scope("staging");
              wc.sts(all, sbuf, slot, vpriv);
            }
            block_tree_reduce(wc, sbuf, row, v, 1, c.x, rop, sc.tree);
            auto prof = wc.prof_scope("finalize");
            const gpusim::LaneMask leads = ja & first_lanes;
            wc.lds(leads, sbuf, row, r);
            detail::fold_lanes(rop, leads, wpriv, r);
            wc.syncthreads();
          });
      // Worker tree per k instance over the first lane's accumulators.
      {
        auto prof = wc.prof_scope("staging");
        wc.sts(first_lanes, wbuf, c.y, wpriv);
      }
      block_tree_reduce(wc, wbuf, {}, w, 1, first_row, rop, sc.tree);
      auto prof = wc.prof_scope("finalize");
      wc.lds(lead, wbuf, gpusim::Lanes<std::uint32_t>{}, r);
      detail::sink_lanes(b, rop, wc, lead, kk, detail::kNoIndex, r);
      wc.syncthreads();
    });
  };

  ReduceResult<T> res;
  res.stats = gpusim::launch(dev, {g}, {v, w}, layout.bytes(), kernel,
                             labeled_sim(sc.sim, "rmp_wv_ordered"));
  res.kernels = 1;
  return res;
}

/// Gang&worker span in different loops: participants are (gang, worker)
/// pairs; each worker's lane 0 publishes its private into a global buffer
/// of g*w entries, and the finalize kernel folds it to a scalar.
template <typename T>
ReduceResult<T> run_gang_worker_reduction(gpusim::Device& dev, Nest3 n,
                                          const acc::LaunchConfig& cfg,
                                          acc::ReductionOp op,
                                          const Bindings<T>& b,
                                          const StrategyConfig& sc = {}) {
  const std::uint32_t g = cfg.num_gangs;
  const std::uint32_t w = cfg.num_workers;
  const std::uint32_t v = cfg.vector_length;

  auto gbuf = dev.alloc<T>(static_cast<std::size_t>(g) * w);
  auto gview = gbuf.view();

  auto kernel = [=, &b](gpusim::WarpCtx& wc) {
    const acc::RuntimeOp<T> rop{op};
    const detail::LaneCoords c(wc);
    const gpusim::LaneMask all = wc.lanes();
    const std::uint32_t bid = wc.blockIdx.x;

    gpusim::Lanes<T> priv;
    priv.fill(rop.identity());
    {
      auto prof = wc.prof_scope("private_partial");
      gpusim::Lanes<T> val{};
      device_loop(sc.assignment, n.nk, bid, g, [&](std::int64_t k) {
        const LaneIndex kk = detail::splat(k);
        warp_device_loop(
            sc.assignment, n.nj, c.y, w, all,
            [&](gpusim::LaneMask mj, const LaneIndex& j) {
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
      });
    }
    gpusim::Lanes<std::size_t> slot{};
    for (std::uint32_t l = 0; l < wc.width(); ++l) {
      slot[l] = static_cast<std::size_t>(bid) * w + c.y[l];
    }
    auto prof = wc.prof_scope("staging");
    const gpusim::LaneMask first_lanes =
        gpusim::lanes_where(all, [&](std::uint32_t l) { return c.x[l] == 0; });
    wc.st(first_lanes, gview, slot, priv);
  };

  ReduceResult<T> res;
  res.stats =
      gpusim::launch(dev, {g}, {v, w}, 0, kernel,
                     labeled_sim(sc.sim, "rmp_gw"));
  res.kernels = 1;
  const T fold = finalize_to_host(dev, gview, std::size_t{g} * w, op, sc,
                                  res.stats, res.kernels);
  res.scalar = detail::fold_host_init(b, acc::RuntimeOp<T>{op}, fold);
  return res;
}

/// Gang&worker&vector span in different loops: every thread participates;
/// the buffer holds g*w*v entries in global memory.
template <typename T>
ReduceResult<T> run_gang_worker_vector_reduction(
    gpusim::Device& dev, Nest3 n, const acc::LaunchConfig& cfg,
    acc::ReductionOp op, const Bindings<T>& b, const StrategyConfig& sc = {}) {
  const std::uint32_t g = cfg.num_gangs;
  const std::uint32_t w = cfg.num_workers;
  const std::uint32_t v = cfg.vector_length;
  const std::size_t total = static_cast<std::size_t>(g) * w * v;

  auto gbuf = dev.alloc<T>(total);
  auto gview = gbuf.view();

  auto kernel = [=, &b](gpusim::WarpCtx& wc) {
    const acc::RuntimeOp<T> rop{op};
    const detail::LaneCoords c(wc);
    const gpusim::LaneMask all = wc.lanes();
    const std::uint32_t bid = wc.blockIdx.x;

    gpusim::Lanes<T> priv;
    priv.fill(rop.identity());
    {
      auto prof = wc.prof_scope("private_partial");
      device_loop(sc.assignment, n.nk, bid, g, [&](std::int64_t k) {
        detail::fold_rows(wc, sc, n, w, v, c, all, detail::splat(k), b, rop,
                          priv);
      });
    }
    gpusim::Lanes<std::size_t> slot{};
    for (std::uint32_t l = 0; l < wc.width(); ++l) {
      slot[l] = (static_cast<std::size_t>(bid) * w + c.y[l]) * v + c.x[l];
    }
    auto prof = wc.prof_scope("staging");
    wc.st(all, gview, slot, priv);
  };

  ReduceResult<T> res;
  res.stats =
      gpusim::launch(dev, {g}, {v, w}, 0, kernel,
                     labeled_sim(sc.sim, "rmp_gwv"));
  res.kernels = 1;
  const T fold =
      finalize_to_host(dev, gview, total, op, sc, res.stats, res.kernels);
  res.scalar = detail::fold_host_init(b, acc::RuntimeOp<T>{op}, fold);
  return res;
}

/// RMP in the same loop (§3.2.2, Fig. 10): one loop of `extent` iterations
/// distributed over every thread of the named parallelism levels; each
/// thread stages its private into a buffer of one entry per thread.
/// `contrib` receives the flat iteration index as `k` (j = i = -1).
template <typename T>
ReduceResult<T> run_same_loop_reduction(gpusim::Device& dev,
                                        std::int64_t extent,
                                        const acc::LaunchConfig& cfg,
                                        acc::ReductionOp op,
                                        const Bindings<T>& b,
                                        const StrategyConfig& sc = {}) {
  const std::uint32_t g = cfg.num_gangs;
  const std::uint32_t w = cfg.num_workers;
  const std::uint32_t v = cfg.vector_length;
  const std::size_t total = static_cast<std::size_t>(g) * w * v;

  auto gbuf = dev.alloc<T>(total);
  auto gview = gbuf.view();

  auto kernel = [=, &b](gpusim::WarpCtx& wc) {
    const acc::RuntimeOp<T> rop{op};
    const detail::LaneCoords c(wc);
    const gpusim::LaneMask all = wc.lanes();
    gpusim::Lanes<std::uint32_t> gtid{};
    for (std::uint32_t l = 0; l < wc.width(); ++l) {
      gtid[l] = (wc.blockIdx.x * w + c.y[l]) * v + c.x[l];
    }

    gpusim::Lanes<T> priv;
    priv.fill(rop.identity());
    {
      auto prof = wc.prof_scope("private_partial");
      gpusim::Lanes<T> val{};
      warp_device_loop(
          sc.assignment, extent, gtid, static_cast<std::int64_t>(total), all,
          [&](gpusim::LaneMask m, const LaneIndex& idx) {
            wc.alu(m, 2);
            b.contrib(wc, m, idx, detail::kNoIndex, detail::kNoIndex, val);
            detail::fold_lanes(rop, m, priv, val);
            wc.alu(m, 1);
            detail::touch_spill(wc, m, sc, sizeof(T));
          });
    }
    auto prof = wc.prof_scope("staging");
    wc.st(all, gview, gtid, priv);
  };

  ReduceResult<T> res;
  res.stats =
      gpusim::launch(dev, {g}, {v, w}, 0, kernel,
                     labeled_sim(sc.sim, "same_loop"));
  res.kernels = 1;
  const T fold =
      finalize_to_host(dev, gview, total, op, sc, res.stats, res.kernels);
  res.scalar = detail::fold_host_init(b, acc::RuntimeOp<T>{op}, fold);
  return res;
}

}  // namespace accred::reduce
