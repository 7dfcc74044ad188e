// Payload reductions: the scalar machinery of §3 lifted to small
// trivially-copyable structs (value+index pairs, moment pairs) folded with
// any associative+commutative op exposing the RuntimeOp shape —
// `identity()` / `.apply(a, b)`. The staging/tree/finalize pipeline is
// byte-oriented underneath (warp and lane ld/st/lds/sts copy elements), so
// pairs flow through shared memory, the racecheck shadow, and the fault
// injector exactly like scalars do.
//
// Geometry is the flattened same-loop shape (§3.2.2, Fig. 10): one flat
// iteration space over all gang*worker*vector threads, per-thread private
// fold, one in-block tree per block, per-block partials, single-block
// finalize. That matches how RAJA-style loc-reductions and custom-struct
// reductions present to the programmer: one loop, one exotic variable.
#pragma once

#include <type_traits>
#include <vector>

#include "reduce/finalize.hpp"
#include "reduce/strategy.hpp"

namespace accred::reduce {

template <typename P>
struct PayloadReduceResult {
  P value{};  ///< fully consolidated payload
  gpusim::LaunchStats stats;
  int kernels = 0;
};

/// Reduce `extent` payload contributions over a flat gang*worker*vector
/// iteration space. `body(ctx, idx)` returns iteration idx's payload P; it
/// runs on each active lane's view (WarpCtx::lane), lowest lane first, and
/// must not synchronize. `op` needs `identity()` and `apply(P, P)`. P must
/// be trivially copyable — it travels through shared and global staging
/// by bytes.
template <typename P, typename Op, typename Body>
PayloadReduceResult<P> run_payload_reduction(gpusim::Device& dev,
                                             std::int64_t extent,
                                             const acc::LaunchConfig& cfg,
                                             Op op, Body&& body,
                                             const StrategyConfig& sc = {}) {
  static_assert(std::is_trivially_copyable_v<P>,
                "payload reductions stage their element through memory");
  const std::uint32_t g = cfg.num_gangs;
  const std::uint32_t w = cfg.num_workers;
  const std::uint32_t v = cfg.vector_length;
  const std::uint32_t nthreads = w * v;
  const std::size_t total_threads = static_cast<std::size_t>(g) * nthreads;

  auto partial = dev.alloc<P>(g, "payload_partials");
  auto pview = partial.view();

  gpusim::SharedLayout layout;
  auto sbuf = layout.add<P>(nthreads);

  auto kernel = [&, pview](gpusim::WarpCtx& wc) {
    const detail::LaneCoords c(wc);
    const gpusim::LaneMask all = wc.lanes();
    const std::uint32_t bid = wc.blockIdx.x;
    const gpusim::LaneMask lead = gpusim::lanes_where(
        all, [&](std::uint32_t l) { return c.tid[l] == 0; });
    gpusim::Lanes<std::size_t> gtid{};
    for (std::uint32_t l = 0; l < wc.width(); ++l) {
      gtid[l] = static_cast<std::size_t>(bid) * nthreads + c.tid[l];
    }

    gpusim::Lanes<P> priv;
    priv.fill(op.identity());
    warp_device_loop(
        sc.assignment, extent, gtid, static_cast<std::int64_t>(total_threads),
        all, [&](gpusim::LaneMask m, const gpusim::Lanes<std::int64_t>& idx) {
          auto prof = wc.prof_scope("private_partial");
          wc.alu(m, 2);
          gpusim::for_each_lane(m, [&](std::uint32_t l) {
            priv[l] = op.apply(priv[l], body(wc.lane(l), idx[l]));
          });
          wc.alu(m, 1);
          detail::touch_spill(wc, m, sc, sizeof(P));
        });
    {
      auto prof = wc.prof_scope("staging");
      wc.sts(all, sbuf, c.tid, priv);
    }
    block_tree_reduce(wc, sbuf, {}, nthreads, 1, c.tid, op, sc.tree);
    auto prof = wc.prof_scope("staging");
    gpusim::Lanes<P> result{};
    wc.lds(lead, sbuf, gpusim::Lanes<std::uint32_t>{}, result);
    wc.st(lead, pview, detail::splat(bid), result);
  };

  PayloadReduceResult<P> res;
  res.stats = gpusim::launch(dev, {g}, {v, w}, layout.bytes(), kernel,
                             labeled_sim(sc.sim, "payload_partial"));
  res.kernels = 1;

  // Single-block finalize over the per-gang partials (Fig. 5c shape,
  // payload element).
  auto out = dev.alloc<P>(1);
  auto oview = out.view();
  const std::uint32_t ft = sc.finalize_threads;
  gpusim::SharedLayout flayout;
  auto fbuf = flayout.add<P>(ft);
  auto fin = [&, pview, oview](gpusim::WarpCtx& wc) {
    const detail::LaneCoords c(wc);  // 1-D block: x is the thread index
    const gpusim::LaneMask all = wc.lanes();
    const gpusim::LaneMask lead =
        gpusim::lanes_where(all, [&](std::uint32_t l) { return c.x[l] == 0; });
    gpusim::Lanes<P> priv;
    priv.fill(op.identity());
    gpusim::Lanes<P> val{};
    warp_device_loop(
        sc.assignment, g, c.x, ft, all,
        [&](gpusim::LaneMask m, const gpusim::Lanes<std::int64_t>& bk) {
          auto prof = wc.prof_scope("private_partial");
          wc.alu(m, 2);
          wc.ld(m, pview, bk, val);
          gpusim::for_each_lane(m, [&](std::uint32_t l) {
            priv[l] = op.apply(priv[l], val[l]);
          });
        });
    {
      auto prof = wc.prof_scope("staging");
      wc.sts(all, fbuf, c.x, priv);
    }
    block_tree_reduce(wc, fbuf, {}, ft, 1, c.x, op, sc.tree);
    auto prof = wc.prof_scope("finalize");
    gpusim::Lanes<P> result{};
    wc.lds(lead, fbuf, gpusim::Lanes<std::uint32_t>{}, result);
    wc.st(lead, oview, gpusim::Lanes<std::uint32_t>{}, result);
  };
  res.stats += gpusim::launch(dev, {1}, {ft}, flayout.bytes(), fin,
                              labeled_sim(sc.sim, "payload_finalize"));
  res.kernels += 1;

  std::vector<P> host(1);
  out.copy_to_host(host);
  res.value = host[0];
  return res;
}

}  // namespace accred::reduce
