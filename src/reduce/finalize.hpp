// The second kernel of Fig. 5(c): a single thread block reduces the
// per-gang (or per-thread, for RMP) partials buffer down to one value.
// This is "the same reduction kernel as the one in vector addition" the
// paper mentions — a grid-stride partial fold, staging, and an in-block
// tree. Shared by the gang and RMP strategies; run on a grid of blocks it
// is also the first pass of the two-pass extension.
#pragma once

#include "reduce/strategy.hpp"

namespace accred::reduce {

/// Launch the finalization kernel over `in[0..count)` on `blocks` blocks
/// of sc.finalize_threads threads: thread x of block b folds elements
/// b·nthreads + x, stepping by blocks·nthreads, and block b writes its fold
/// to out[b]. One block is Fig. 5c's second kernel; a grid is the first
/// pass of the two-pass finalize below. Global staging (sc.staging)
/// allocates its own buffer, one row per block. Returns the launch stats.
template <typename T>
gpusim::LaunchStats launch_finalize(gpusim::Device& dev,
                                    gpusim::GlobalView<T> in,
                                    std::size_t count,
                                    gpusim::GlobalView<T> out,
                                    acc::ReductionOp op,
                                    const StrategyConfig& sc,
                                    std::uint32_t blocks = 1) {
  const std::uint32_t nthreads = sc.finalize_threads;
  gpusim::SharedLayout layout;
  gpusim::SharedView<T> sbuf;
  gpusim::DeviceBuffer<T> gstage;
  gpusim::GlobalView<T> gview{};
  if (sc.staging == Staging::kShared) {
    sbuf = layout.add<T>(nthreads);
  } else {
    gstage = dev.alloc<T>(std::size_t{blocks} * nthreads);
    gview = gstage.view();
  }

  auto kernel = [=](gpusim::WarpCtx& wc) {
    // The whole kernel is finalization work; its internal tree nests into
    // the "tree" stage.
    auto prof = wc.prof_scope("finalize");
    const acc::RuntimeOp<T> rop{op};
    const detail::LaneCoords c(wc);  // 1-D block: x is the thread index
    const gpusim::LaneMask all = wc.lanes();
    const gpusim::LaneMask lead =
        gpusim::lanes_where(all, [&](std::uint32_t l) { return c.x[l] == 0; });
    const std::uint32_t bid = wc.blockIdx.x;
    const std::size_t base = std::size_t{bid} * nthreads;
    gpusim::Lanes<std::size_t> gtid{};
    for (std::uint32_t l = 0; l < wc.width(); ++l) gtid[l] = base + c.x[l];
    gpusim::Lanes<T> priv;
    priv.fill(rop.identity());
    gpusim::Lanes<T> val;
    warp_device_loop(
        sc.assignment, static_cast<std::int64_t>(count), gtid,
        std::int64_t{blocks} * nthreads, all,
        [&](gpusim::LaneMask m, const gpusim::Lanes<std::int64_t>& idx) {
          wc.alu(m, 2);
          wc.ld(m, in, idx, val);
          detail::fold_lanes(rop, m, priv, val);
        });
    gpusim::Lanes<T> result{};
    if (sc.staging == Staging::kShared) {
      wc.sts(all, sbuf, c.x, priv);
      block_tree_reduce(wc, sbuf, {}, nthreads, 1, c.x, rop, sc.tree);
      wc.lds(lead, sbuf, gpusim::Lanes<std::uint32_t>{}, result);
    } else {
      gpusim::Lanes<std::size_t> bases;
      bases.fill(base);
      wc.st(all, gview, gtid, priv);
      block_tree_reduce_global(wc, gview, bases, nthreads, c.x, rop, sc.tree);
      wc.ld(lead, gview, bases, result);
    }
    wc.st(lead, out, detail::splat(bid), result);
  };
  return gpusim::launch(dev, {blocks}, {nthreads}, layout.bytes(), kernel,
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
  StrategyConfig pass1 = sc;
  pass1.sim = labeled_sim(sc.sim, "finalize_pass1");
  gpusim::LaunchStats stats = launch_finalize(dev, in, count, mid.view(), op,
                                              pass1, first_pass_blocks);
  stats += launch_finalize(dev, mid.view(), first_pass_blocks, out, op, sc);
  return stats;
}

/// Convenience wrapper: allocates the output, runs the finalize kernel, and
/// reads the scalar back.
template <typename T>
T finalize_to_host(gpusim::Device& dev, gpusim::GlobalView<T> in,
                   std::size_t count, acc::ReductionOp op,
                   const StrategyConfig& sc, gpusim::LaunchStats& stats,
                   int& kernels) {
  auto out = dev.alloc<T>(1);
  stats += launch_finalize(dev, in, count, out.view(), op, sc);
  kernels += 1;
  T host_out{};
  out.copy_to_host(std::span<T>(&host_out, 1));
  return host_out;
}

}  // namespace accred::reduce
