// Array reductions — the extension §5 credits to Komoda et al. [11]: the
// OpenACC specification of the paper's era only allowed *scalar* reduction
// variables, so histogram-style kernels ("every element of an array needs
// to do reduction") had no direct spelling. This module lifts the scalar
// machinery to arrays:
//   * every thread keeps a private copy of the whole array and folds its
//     loop window into it,
//   * per-element in-block trees consolidate, reusing one shared slab
//     (the §3.3 slab-sharing idea applied across elements),
//   * per-block partial arrays land in global memory and a single-block
//     kernel finalizes every element (the Fig. 5c pattern, vectorized).
#pragma once

#include <algorithm>
#include <vector>

#include "reduce/finalize.hpp"
#include "reduce/strategy.hpp"

namespace accred::reduce {

/// Per-thread private view of the reduction array inside the loop body.
template <typename T>
class ArrayAccum {
public:
  ArrayAccum(gpusim::ThreadCtx& ctx, std::span<T> priv,
             acc::RuntimeOp<T> op) noexcept
      : ctx_(&ctx), priv_(priv), op_(op) {}

  /// Fold `v` into element `e` of this thread's private copy.
  void add(std::size_t e, T v) {
    if (e >= priv_.size()) {
      throw std::out_of_range("array reduction element out of range");
    }
    priv_[e] = op_.apply(priv_[e], v);
    ctx_->alu(2);
  }

  [[nodiscard]] std::size_t size() const noexcept { return priv_.size(); }

private:
  gpusim::ThreadCtx* ctx_;
  std::span<T> priv_;
  acc::RuntimeOp<T> op_;
};

namespace detail {

/// At least `n` values of scratch for the calling host thread, reused by
/// every array-reduction block it simulates. Its blocks run one at a time
/// and each warp context takes its own slice, so the first context of a
/// block to ask sizes it for all of them.
template <typename T>
T* array_scratch(std::size_t n) {
  thread_local std::vector<T> scratch;
  if (scratch.size() < n) scratch.resize(n);
  return scratch.data();
}

}  // namespace detail

template <typename T>
struct ArrayReduceResult {
  std::vector<T> values;  ///< final array, length = array_len
  gpusim::LaunchStats stats;
  int kernels = 0;
};

/// Reduce an array of `array_len` elements over a same-loop iteration
/// space of `extent`, gang+vector distributed. `body(ctx, idx, accum)` is
/// called once per iteration and may fold into any element.
template <typename T, typename Body>
ArrayReduceResult<T> run_array_reduction(gpusim::Device& dev,
                                         std::int64_t extent,
                                         std::size_t array_len,
                                         const acc::LaunchConfig& cfg,
                                         acc::ReductionOp op, Body&& body,
                                         const StrategyConfig& sc = {}) {
  if (array_len == 0 || array_len > 4096) {
    throw std::invalid_argument(
        "array reduction supports 1..4096 elements (private copies live in "
        "thread-local storage)");
  }
  const std::uint32_t g = cfg.num_gangs;
  const std::uint32_t w = cfg.num_workers;
  const std::uint32_t v = cfg.vector_length;
  const std::uint32_t nthreads = w * v;
  const std::size_t total_threads = static_cast<std::size_t>(g) * nthreads;

  // One partial array per block, element-major within the block so the
  // finalize kernel reads each element's partials at stride array_len.
  auto partials = dev.alloc<T>(static_cast<std::size_t>(g) * array_len);
  auto pview = partials.view();

  gpusim::SharedLayout layout;
  auto sbuf = layout.add<T>(nthreads);  // slab reused per element (§3.3)

  auto kernel = [&, pview](gpusim::WarpCtx& wc) {
    const acc::RuntimeOp<T> rop{op};
    const detail::LaneCoords c(wc);
    const gpusim::LaneMask all = wc.lanes();
    const std::uint32_t bid = wc.blockIdx.x;
    const std::uint32_t width = wc.width();
    gpusim::Lanes<std::int64_t> gtid{};
    for (std::uint32_t l = 0; l < width; ++l) {
      gtid[l] = static_cast<std::int64_t>(
          static_cast<std::size_t>(bid) * nthreads + c.tid[l]);
    }

    // Each lane's private copy of the array, at its linear tid in the host
    // thread's scratch. A failed launch abandons warps parked at a barrier
    // without unwinding them, so the warp's frame must own no heap storage.
    T* const priv = detail::array_scratch<T>(nthreads * array_len) +
                    static_cast<std::size_t>(c.tid[0]) * array_len;
    std::fill_n(priv, width * array_len, rop.identity());
    warp_device_loop(
        sc.assignment, extent, gtid, static_cast<std::int64_t>(total_threads),
        all, [&](gpusim::LaneMask m, const gpusim::Lanes<std::int64_t>& idx) {
          wc.alu(m, 2);
          gpusim::for_each_lane(m, [&](std::uint32_t l) {
            ArrayAccum<T> accum(
                wc.lane(l), std::span<T>(priv + l * array_len, array_len),
                rop);
            body(wc.lane(l), idx[l], accum);
          });
        });

    // Per-element consolidation through the shared slab.
    const gpusim::LaneMask lead = gpusim::lanes_where(
        all, [&](std::uint32_t l) { return c.tid[l] == 0; });
    gpusim::Lanes<T> val;
    for (std::size_t e = 0; e < array_len; ++e) {
      for (std::uint32_t l = 0; l < width; ++l) {
        val[l] = priv[l * array_len + e];
      }
      wc.sts(all, sbuf, c.tid, val);
      block_tree_reduce(wc, sbuf, {}, nthreads, 1, c.tid, rop, sc.tree);
      gpusim::for_each_lane(lead, [&](std::uint32_t l) {
        gpusim::ThreadCtx& lane = wc.lane(l);
        lane.st(pview, static_cast<std::size_t>(bid) * array_len + e,
                lane.lds(sbuf, 0));
      });
      wc.syncthreads();  // slab reused by the next element
    }
  };

  ArrayReduceResult<T> res;
  res.stats = gpusim::launch(dev, {g}, {v, w}, layout.bytes(), kernel,
                             labeled_sim(sc.sim, "array_partial"));
  res.kernels = 1;

  // Finalize: one block folds each element's per-gang partials.
  auto out = dev.alloc<T>(array_len);
  auto oview = out.view();
  const std::uint32_t ft = sc.finalize_threads;
  gpusim::SharedLayout flayout;
  auto fbuf = flayout.add<T>(ft);
  auto fin = [&, pview, oview](gpusim::WarpCtx& wc) {
    const acc::RuntimeOp<T> rop{op};
    const detail::LaneCoords c(wc);  // 1-D block: x is the thread index
    const gpusim::LaneMask all = wc.lanes();
    const gpusim::LaneMask lead =
        gpusim::lanes_where(all, [&](std::uint32_t l) { return c.x[l] == 0; });
    gpusim::Lanes<T> val;
    gpusim::Lanes<std::size_t> at{};
    for (std::size_t e = 0; e < array_len; ++e) {
      gpusim::Lanes<T> priv;
      priv.fill(rop.identity());
      warp_device_loop(
          sc.assignment, g, c.x, ft, all,
          [&](gpusim::LaneMask m, const gpusim::Lanes<std::int64_t>& blk) {
            wc.alu(m, 2);
            gpusim::for_each_lane(m, [&](std::uint32_t l) {
              at[l] = static_cast<std::size_t>(blk[l]) * array_len + e;
            });
            wc.ld(m, pview, at, val);
            gpusim::for_each_lane(m, [&](std::uint32_t l) {
              priv[l] = rop.apply(priv[l], val[l]);
            });
          });
      wc.sts(all, fbuf, c.x, priv);
      block_tree_reduce(wc, fbuf, {}, ft, 1, c.x, rop, sc.tree);
      gpusim::for_each_lane(lead, [&](std::uint32_t l) {
        gpusim::ThreadCtx& lane = wc.lane(l);
        lane.st(oview, e, lane.lds(fbuf, 0));
      });
      wc.syncthreads();
    }
  };
  res.stats += gpusim::launch(dev, {1}, {ft}, flayout.bytes(), fin,
                              labeled_sim(sc.sim, "array_finalize"));
  res.kernels += 1;

  res.values.resize(array_len);
  out.copy_to_host(res.values);
  return res;
}

}  // namespace accred::reduce
