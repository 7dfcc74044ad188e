// The second kernel of Fig. 5(c): a single thread block reduces the
// per-gang (or per-thread, for RMP) partials buffer down to one value.
// This is "the same reduction kernel as the one in vector addition" the
// paper mentions — a grid-stride partial fold, staging, and an in-block
// tree. Shared by the gang and RMP strategies.
#pragma once

#include "reduce/strategy.hpp"

namespace accred::reduce {

/// Launch the one-block finalization kernel over `in[0..count)`, writing
/// the fold to `out[0]`. Returns the launch stats.
template <typename T>
gpusim::LaunchStats launch_finalize(gpusim::Device& dev,
                                    gpusim::GlobalView<T> in,
                                    std::size_t count,
                                    gpusim::GlobalView<T> out,
                                    acc::ReductionOp op,
                                    const StrategyConfig& sc,
                                    gpusim::GlobalView<T> gstage = {}) {
  const std::uint32_t nthreads = sc.finalize_threads;
  gpusim::SharedLayout layout;
  gpusim::SharedView<T> sbuf;
  if (sc.staging == Staging::kShared) sbuf = layout.add<T>(nthreads);

  auto kernel = [=](gpusim::WarpCtx& wc) {
    // The whole second kernel is finalization work; its internal tree
    // nests into the "tree" stage.
    auto prof = wc.prof_scope("finalize");
    const acc::RuntimeOp<T> rop{op};
    const detail::LaneCoords c(wc);  // 1-D block: x is the thread index
    const gpusim::LaneMask all = wc.lanes();
    const gpusim::LaneMask lead =
        gpusim::lanes_where(all, [&](std::uint32_t l) { return c.x[l] == 0; });
    gpusim::Lanes<T> priv;
    priv.fill(rop.identity());
    gpusim::Lanes<T> val;
    warp_device_loop(
        sc.assignment, static_cast<std::int64_t>(count),
        c.x, nthreads, all,
        [&](gpusim::LaneMask m, const gpusim::Lanes<std::int64_t>& idx) {
          wc.alu(m, 2);
          wc.ld(m, in, idx, val);
          gpusim::for_each_lane(m, [&](std::uint32_t l) {
            priv[l] = rop.apply(priv[l], val[l]);
          });
        });
    if (sc.staging == Staging::kShared) {
      wc.sts(all, sbuf, c.x, priv);
      block_tree_reduce(wc, sbuf, {}, nthreads, 1, c.x, rop, sc.tree);
      gpusim::for_each_lane(lead, [&](std::uint32_t l) {
        gpusim::ThreadCtx& lane = wc.lane(l);
        lane.st(out, 0, lane.lds(sbuf, 0));
      });
    } else {
      wc.st(all, gstage, c.x, priv);
      block_tree_reduce_global(wc, gstage, gpusim::Lanes<std::size_t>{},
                               nthreads, c.x, rop, sc.tree);
      gpusim::for_each_lane(lead, [&](std::uint32_t l) {
        gpusim::ThreadCtx& lane = wc.lane(l);
        lane.st(out, 0, lane.ld(gstage, 0));
      });
    }
  };
  return gpusim::launch(dev, {1}, {nthreads}, layout.bytes(), kernel,
                        labeled_sim(sc.sim, "finalize_1block"));
}

/// Extension ablation: a two-pass finalize. The paper's Fig. 5c uses one
/// block for the second kernel, which serializes on a single SM once the
/// partials buffer is large (the RMP strategies produce gangs x workers x
/// vector entries). The classic alternative (Harris's multi-pass scheme)
/// first lets a full grid fold the buffer down to one partial per block,
/// then runs the single-block kernel on those. Costs one extra launch;
/// wins when count >> finalize_threads.
template <typename T>
gpusim::LaunchStats launch_finalize_two_pass(
    gpusim::Device& dev, gpusim::GlobalView<T> in, std::size_t count,
    gpusim::GlobalView<T> out, acc::ReductionOp op, const StrategyConfig& sc,
    std::uint32_t first_pass_blocks = 0) {
  const std::uint32_t nthreads = sc.finalize_threads;
  if (first_pass_blocks == 0) {
    // Enough blocks that each thread folds a handful of elements.
    const std::size_t want =
        (count + nthreads * 8 - 1) / (std::size_t{nthreads} * 8);
    first_pass_blocks = static_cast<std::uint32_t>(
        std::clamp<std::size_t>(want, 1, 192));
  }
  auto mid = dev.alloc<T>(first_pass_blocks);
  auto mview = mid.view();

  gpusim::SharedLayout layout;
  auto sbuf = layout.add<T>(nthreads);
  const std::uint32_t blocks = first_pass_blocks;
  auto pass1 = [=](gpusim::ThreadCtx& ctx) {
    auto prof = ctx.prof_scope("finalize");
    const acc::RuntimeOp<T> rop{op};
    const std::uint32_t t = ctx.threadIdx.x;
    const std::size_t gtid =
        static_cast<std::size_t>(ctx.blockIdx.x) * nthreads + t;
    T priv = rop.identity();
    device_loop(sc.assignment, static_cast<std::int64_t>(count),
                static_cast<std::int64_t>(gtid),
                static_cast<std::int64_t>(blocks) * nthreads,
                [&](std::int64_t idx) {
                  ctx.alu(2);
                  priv = rop.apply(priv,
                                   ctx.ld(in, static_cast<std::size_t>(idx)));
                });
    ctx.sts(sbuf, t, priv);
    block_tree_reduce(ctx, sbuf, 0, nthreads, 1, t, rop, sc.tree);
    if (t == 0) ctx.st(mview, ctx.blockIdx.x, ctx.lds(sbuf, 0));
  };
  gpusim::LaunchStats stats =
      gpusim::launch(dev, {blocks}, {nthreads}, layout.bytes(), pass1,
                     labeled_sim(sc.sim, "finalize_pass1"));
  stats += launch_finalize(dev, mview, first_pass_blocks, out, op, sc);
  return stats;
}

/// Convenience wrapper: allocates the output (and the global staging buffer
/// if needed), runs the finalize kernel, and reads the scalar back.
template <typename T>
T finalize_to_host(gpusim::Device& dev, gpusim::GlobalView<T> in,
                   std::size_t count, acc::ReductionOp op,
                   const StrategyConfig& sc, gpusim::LaunchStats& stats,
                   int& kernels) {
  auto out = dev.alloc<T>(1);
  gpusim::DeviceBuffer<T> gstage;
  gpusim::GlobalView<T> gstage_view{};
  if (sc.staging == Staging::kGlobal) {
    gstage = dev.alloc<T>(sc.finalize_threads);
    gstage_view = gstage.view();
  }
  stats += launch_finalize(dev, in, count, out.view(), op, sc, gstage_view);
  kernels += 1;
  T host_out{};
  out.copy_to_host(std::span<T>(&host_out, 1));
  return host_out;
}

}  // namespace accred::reduce
