// Cascaded reductions (§3.2, Fig. 4 generalized): "reduction can also
// occur on different variables within different levels of parallelism".
// Run a whole producer→consumer reduction chain in ONE kernel instead of
// one launch per stage. The stage list comes from the planner
// (acc::ExecutionPlan::chain, built from analysis-detected chains) or is
// written by hand (examples/nested_statistics.cpp); each stage carries its
// own operator and per-instance initial value, and every in-block stage
// shares a single shared-memory slab — the vector trees use the full
// w x v staging area, and the worker tree reuses its (dead, post-barrier)
// first w slots rather than allocating a second buffer.
//
// Supported chains (innermost first): [vector, worker],
// [worker, gang], [vector, worker, gang]. When the outermost stage is a
// gang reduction the kernel ends with the usual per-gang partials buffer
// and single-block finalize (Fig. 5c); otherwise the outermost stage's
// per-instance results leave through its sink and no second kernel runs.
//
// Fold orders deliberately mirror the unfused strategy kernels
// (vector_reduce / worker_reduce / gang_reduce) exactly — same window
// assignment, same staging participants, same tree shapes — so a fused
// chain's per-level results are bit-identical to the N-launch sequence
// (pinned by tests/reduce/test_fused_cascade.cpp).
#pragma once

#include <vector>

#include "acc/planner.hpp"
#include "reduce/finalize.hpp"
#include "reduce/strategy.hpp"

namespace accred::reduce {

/// Loop-body callables for a fused chain, in the warp form of Bindings<T>
/// (strategy.hpp): a per-lane body wraps in per_lane(). Stage-specific
/// members are ignored when the chain lacks that stage.
template <typename T>
struct FusedChainBindings {
  /// Innermost contribution: (k, j, i) with a vector stage, else (k, j, -1).
  decltype(Bindings<T>::contrib) contrib;
  /// Optional non-reduction work on the innermost iterations (the Fig. 4
  /// parallel copy); only run when the chain has a vector stage.
  decltype(Bindings<T>::parallel_work) parallel_work;
  /// Per-instance initial values (§3.1.1's rule, per stage): `i_sum = j`
  /// and `j_sum = k` in Fig. 4; the worker stage's sees j = -1. Null = the
  /// stage operator's identity.
  decltype(Bindings<T>::instance_init) vector_init;
  decltype(Bindings<T>::instance_init) worker_init;
  /// Optional per-instance result observers: lane l of the mask is the one
  /// device thread holding instance (k[l], j[l])'s result[l]. The worker
  /// stage's sees j = -1.
  decltype(Bindings<T>::sink) vector_sink;
  decltype(Bindings<T>::sink) worker_sink;
  /// Incoming value of the outermost stage's variable; folded into the
  /// returned scalar (gang-terminated chains only).
  T host_init{};
  bool host_init_set = false;
};

/// Run a planner-emitted fused chain. `chain` is innermost-first (the
/// ExecutionPlan::chain layout); returns the gang scalar when the chain
/// ends at the gang level, otherwise results leave through the sinks.
template <typename T>
ReduceResult<T> run_fused_chain(gpusim::Device& dev,
                                const std::vector<acc::FusedStage>& chain,
                                Nest3 n, const acc::LaunchConfig& cfg,
                                const FusedChainBindings<T>& b,
                                const StrategyConfig& sc = {}) {
  if (chain.size() < 2 || chain.size() > 3) {
    throw std::invalid_argument(
        "run_fused_chain: chain must be [vector,worker], [worker,gang] or "
        "[vector,worker,gang], innermost first");
  }
  const bool sv = chain.front().level == acc::Par::kVector;
  const bool sg = chain.back().level == acc::Par::kGang;
  // A 2-stage chain is either vector->worker (in-block only) or
  // worker->gang; 3 stages must span all three levels.
  const bool shape_ok =
      chain.size() == 3
          ? sv && chain[1].level == acc::Par::kWorker && sg
          : (sv && chain.back().level == acc::Par::kWorker) ||
                (chain.front().level == acc::Par::kWorker && sg);
  if (!shape_ok) {
    throw std::invalid_argument(
        "run_fused_chain: chain must be [vector,worker], [worker,gang] or "
        "[vector,worker,gang], innermost first");
  }
  const acc::ReductionOp vector_op = sv ? chain.front().op
                                        : acc::ReductionOp::kSum;
  const acc::ReductionOp worker_op = sv ? chain[1].op : chain.front().op;
  const acc::ReductionOp gang_op = sg ? chain.back().op
                                      : acc::ReductionOp::kSum;

  const std::uint32_t g = cfg.num_gangs;
  const std::uint32_t w = cfg.num_workers;
  const std::uint32_t v = cfg.vector_length;

  // One slab for every in-block stage (w <= w*v always).
  gpusim::SharedLayout layout;
  auto sbuf = layout.add<T>(sv ? static_cast<std::size_t>(w) * v : w);

  gpusim::DeviceBuffer<T> partial;
  gpusim::GlobalView<T> pview{};
  if (sg) {
    partial = dev.alloc<T>(g, "fused_partials");
    pview = partial.view();
  }

  auto kernel = [=, &b](gpusim::WarpCtx& wc) {
    const acc::RuntimeOp<T> vop{vector_op};
    const acc::RuntimeOp<T> wop{worker_op};
    const acc::RuntimeOp<T> gop{gang_op};
    const detail::LaneCoords c(wc);
    const gpusim::LaneMask all = wc.lanes();
    const std::uint32_t bid = wc.blockIdx.x;
    const gpusim::LaneMask first_lanes =
        gpusim::lanes_where(all, [&](std::uint32_t l) { return c.x[l] == 0; });
    const gpusim::LaneMask lead = gpusim::lanes_where(
        all, [&](std::uint32_t l) { return c.x[l] == 0 && c.y[l] == 0; });
    // Vector rows of the slab, and the worker tree's participants: the
    // first row's vector lanes.
    gpusim::Lanes<std::uint32_t> row{};
    gpusim::Lanes<std::uint32_t> slot{};
    gpusim::Lanes<std::uint32_t> first_row{};
    for (std::uint32_t l = 0; l < wc.width(); ++l) {
      row[l] = c.y[l] * v;
      slot[l] = row[l] + c.x[l];
      first_row[l] = c.y[l] == 0 ? c.x[l] : ~std::uint32_t{0};
    }
    // A stage's results in the lanes of `m`: fold in each instance's
    // initial value, then hand them to the stage's sink, if any.
    const auto finish = [&](const auto& init, const auto& sink,
                            const acc::RuntimeOp<T>& op, gpusim::LaneMask m,
                            const LaneIndex& k, const LaneIndex& j,
                            gpusim::Lanes<T>& r) {
      if (m == 0) return;
      if (init) {
        gpusim::for_each_lane(m, [&](std::uint32_t l) {
          r[l] = op.apply(init(k[l], j[l]), r[l]);
        });
      }
      if (sink) sink(wc, m, k, j, r);
    };

    gpusim::Lanes<T> gang_priv;
    gang_priv.fill(gop.identity());
    gpusim::Lanes<T> r{};
    device_loop(sc.assignment, n.nk, bid, g, [&](std::int64_t k) {
      const LaneIndex kk = detail::splat(k);
      gpusim::Lanes<T> worker_priv;
      worker_priv.fill(wop.identity());
      // Padded: with a vector stage the body stages + runs a
      // barrier-synchronized tree per (k, j) instance.
      warp_assigned_loop(
          sc.assignment, n.nj, c.y, w, all,
          [&](const LaneIndex& j, gpusim::LaneMask ja) {
            const gpusim::LaneMask leads = ja & first_lanes;
            if (sv) {
              gpusim::Lanes<T> vector_priv;
              vector_priv.fill(vop.identity());
              if (ja != 0) {
                auto prof = wc.prof_scope("private_partial");
                gpusim::Lanes<T> val{};
                warp_device_loop(
                    sc.assignment, n.ni, c.x, v, ja,
                    [&](gpusim::LaneMask m, const LaneIndex& i) {
                      detail::fold_step(wc, sc, b, vop, m, kk, j, i,
                                        vector_priv, val);
                    });
              }
              {
                auto prof = wc.prof_scope("staging");
                wc.sts(all, sbuf, slot, vector_priv);
              }
              block_tree_reduce(wc, sbuf, row, v, 1, c.x, vop, sc.tree);
              auto prof = wc.prof_scope("finalize");
              wc.lds(leads, sbuf, row, r);
              finish(b.vector_init, b.vector_sink, vop, leads, kk, j, r);
              detail::fold_lanes(wop, leads, worker_priv, r);
              wc.alu(leads, 1);
              wc.syncthreads();  // the slab is reused by the next instance
            } else if (leads != 0) {
              auto prof = wc.prof_scope("private_partial");
              b.contrib(wc, leads, kk, j, detail::kNoIndex, r);
              detail::fold_lanes(wop, leads, worker_priv, r);
              wc.alu(leads, 3);
              detail::touch_spill(wc, leads, sc, sizeof(T));
            }
          });
      // Worker tree per k over the lane-0 accumulators (Fig. 8c shape),
      // reusing the slab's first w slots.
      {
        auto prof = wc.prof_scope("staging");
        wc.sts(first_lanes, sbuf, c.y, worker_priv);
      }
      block_tree_reduce(wc, sbuf, {}, w, 1, first_row, wop, sc.tree);
      auto prof = wc.prof_scope("finalize");
      wc.lds(lead, sbuf, gpusim::Lanes<std::uint32_t>{}, r);
      finish(b.worker_init, b.worker_sink, wop, lead, kk, detail::kNoIndex,
             r);
      if (sg) {
        detail::fold_lanes(gop, lead, gang_priv, r);
        wc.alu(lead, 1);
      }
      wc.syncthreads();  // the slab is reused by the next k instance
    });
    if (sg) {
      auto prof = wc.prof_scope("staging");
      wc.st(lead, pview, detail::splat(bid), gang_priv);
    }
  };

  ReduceResult<T> res;
  res.stats = gpusim::launch(dev, {g}, {v, w}, layout.bytes(), kernel,
                             labeled_sim(sc.sim, "fused_cascade"));
  res.kernels = 1;
  if (sg) {
    const T fold = finalize_to_host(dev, pview, g, gang_op, sc, res.stats,
                                    res.kernels);
    const acc::RuntimeOp<T> gop{gang_op};
    res.scalar = b.host_init_set ? gop.apply(b.host_init, fold) : fold;
  }
  return res;
}

}  // namespace accred::reduce
