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

/// Loop-body callables for a fused chain. Stage-specific members are
/// ignored when the chain lacks that stage.
template <typename T>
struct FusedChainBindings {
  /// Innermost contribution: (k, j, i) with a vector stage, else (k, j, -1).
  std::function<T(gpusim::ThreadCtx&, std::int64_t k, std::int64_t j,
                  std::int64_t i)>
      contrib;
  /// Optional non-reduction work on the innermost iterations (the Fig. 4
  /// parallel copy); only run when the chain has a vector stage.
  std::function<void(gpusim::ThreadCtx&, std::int64_t k, std::int64_t j,
                     std::int64_t i)>
      parallel_work;
  /// Per-instance initial values (§3.1.1's rule, per stage): `i_sum = j`
  /// and `j_sum = k` in Fig. 4. Null = the stage operator's identity.
  std::function<T(std::int64_t k, std::int64_t j)> vector_init;
  std::function<T(std::int64_t k)> worker_init;
  /// Optional per-instance result observers, run by one device thread.
  std::function<void(gpusim::ThreadCtx&, std::int64_t k, std::int64_t j, T)>
      vector_sink;
  std::function<void(gpusim::ThreadCtx&, std::int64_t k, T)> worker_sink;
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

  auto kernel = [=, &b](gpusim::ThreadCtx& ctx) {
    const acc::RuntimeOp<T> vop{vector_op};
    const acc::RuntimeOp<T> wop{worker_op};
    const acc::RuntimeOp<T> gop{gang_op};
    const std::uint32_t x = ctx.threadIdx.x;
    const std::uint32_t y = ctx.threadIdx.y;
    const std::uint32_t bid = ctx.blockIdx.x;

    T gang_priv = gop.identity();
    device_loop(sc.assignment, n.nk, bid, g, [&](std::int64_t k) {
      T worker_priv = wop.identity();
      // Padded: with a vector stage the body stages + runs a
      // barrier-synchronized tree per (k, j) instance.
      assigned_loop(sc.assignment, n.nj, y, w, [&](std::int64_t j, bool ja) {
        if (sv) {
          T vector_priv = vop.identity();
          if (ja) {
            auto prof = ctx.prof_scope("private_partial");
            device_loop(sc.assignment, n.ni, x, v, [&](std::int64_t i) {
              ctx.alu(2);
              if (b.parallel_work) b.parallel_work(ctx, k, j, i);
              vector_priv = vop.apply(vector_priv, b.contrib(ctx, k, j, i));
              ctx.alu(1);
              detail::touch_spill(ctx, sc, sizeof(T));
            });
          }
          {
            auto prof = ctx.prof_scope("staging");
            ctx.sts(sbuf, y * v + x, vector_priv);
          }
          block_tree_reduce(ctx, sbuf, y * v, v, 1, x, vop, sc.tree);
          auto prof = ctx.prof_scope("finalize");
          if (x == 0 && ja) {
            T vec_result = ctx.lds(sbuf, y * v);
            if (b.vector_init) {
              vec_result = vop.apply(b.vector_init(k, j), vec_result);
            }
            if (b.vector_sink) b.vector_sink(ctx, k, j, vec_result);
            worker_priv = wop.apply(worker_priv, vec_result);
            ctx.alu(1);
          }
          ctx.syncthreads();  // the slab is reused by the next instance
        } else if (x == 0 && ja) {
          auto prof = ctx.prof_scope("private_partial");
          worker_priv = wop.apply(worker_priv, b.contrib(ctx, k, j, -1));
          ctx.alu(3);
          detail::touch_spill(ctx, sc, sizeof(T));
        }
      });
      // Worker tree per k over the lane-0 accumulators (Fig. 8c shape),
      // reusing the slab's first w slots.
      {
        auto prof = ctx.prof_scope("staging");
        if (x == 0) ctx.sts(sbuf, y, worker_priv);
      }
      block_tree_reduce(ctx, sbuf, 0, w, 1, y == 0 ? x : ~std::uint32_t{0},
                        wop, sc.tree);
      auto prof = ctx.prof_scope("finalize");
      if (x == 0 && y == 0) {
        T k_result = ctx.lds(sbuf, 0);
        if (b.worker_init) k_result = wop.apply(b.worker_init(k), k_result);
        if (b.worker_sink) b.worker_sink(ctx, k, k_result);
        if (sg) {
          gang_priv = gop.apply(gang_priv, k_result);
          ctx.alu(1);
        }
      }
      ctx.syncthreads();  // the slab is reused by the next k instance
    });
    if (sg) {
      auto prof = ctx.prof_scope("staging");
      if (x == 0 && y == 0) ctx.st(pview, bid, gang_priv);
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
