// In-block log-step tree reduction (the paper's Fig. 7, after Harris [10]),
// generalized the way OpenUH needs it:
//   * arbitrary (non-power-of-2) element counts via a pre-fold step (§3.3),
//   * per-row operation so each worker's vector lanes can reduce their own
//     row concurrently (Fig. 6c),
//   * strided element layout so the transposed layouts of Fig. 6b / 8b are
//     expressible (and their bank conflicts measurable),
//   * a warp-synchronous tail that replaces syncthreads with (free)
//     syncwarp once only one warp participates (§3.1.1's "unroll the last
//     6 iterations"),
//   * both shared-memory and global-memory operands (§3.3's fallback).
//
// Contract: stage the per-thread partials, then have EVERY thread of the
// block call the same tree function with the same `count` and options (the
// functions contain barriers; the leading barrier orders the staging
// stores). Non-participants pass `local >= count`. On return, the result
// sits in the row's first element and is visible block-wide.
//
// The tree is written once, for warp kernels (gpusim/warp_ctx.hpp); the
// ThreadCtx overloads run it on a width-1 view of the calling lane.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>

#include "acc/ops.hpp"
#include "gpusim/warp_ctx.hpp"

namespace accred::reduce {

enum class AddrMode : std::uint8_t {
  kSequential,          ///< active threads 0..stride-1 (paper's choice)
  kInterleavedThreads,  ///< Harris kernel-1 baseline: thread t active when
                        ///< t % (2*stride) == 0 (divergent, conflict-prone)
};

struct TreeOptions {
  AddrMode addr = AddrMode::kSequential;
  /// Switch to syncwarp once a single warp of lanes remains (requires the
  /// participating lanes 0..31 of a row to be one hardware warp).
  bool unroll_last_warp = true;
  /// Model full unrolling (paper: "we unroll all iterations"): removes the
  /// per-step loop-arithmetic ALU charge.
  bool full_unroll = true;
};

namespace detail {

/// True when the first 32 participants of a contiguous row form one
/// hardware warp — the precondition for the warp-synchronous tail. The
/// result must be uniform across the block: with blockDim.x a multiple of
/// 32, all row bases used by the strategies (y * blockDim.x, or 0) are
/// warp-aligned; otherwise the tail is disabled for everyone.
[[nodiscard]] constexpr bool warp_tail_allowed(std::uint32_t stride_elems,
                                               std::uint32_t block_x) {
  return stride_elems == 1 && block_x % 32 == 0;
}

// The one tree, in warp form: lane l of the context reduces its row at
// row_base[l] as participant local[l]. Each step is one warp instruction
// per load/store over the participating lanes, which are always a prefix
// of the row's lanes (local < stride), so every lane sees the per-lane
// event sequence of the scalar tree. `Op` is anything with the RuntimeOp
// shape — `.apply(a, b)` over the staged element type. Payload reductions
// (acc::ArgMinOp over acc::ValueIndex pairs, the bench's moment pairs)
// reuse the tree unchanged this way.
template <typename Mem, typename Op>
void tree_reduce_impl(gpusim::WarpCtx& wc, const Mem& mem,
                      const gpusim::Lanes<std::uint32_t>& row_base,
                      std::uint32_t count, std::uint32_t stride_elems,
                      const gpusim::Lanes<std::uint32_t>& local, Op op,
                      const TreeOptions& opt, bool warp_tail_ok) {
  // Every combine load/store, barrier, and loop-bookkeeping charge of the
  // in-block tree books into one profiler stage — the per-stage bank
  // conflict factor here is what separates Fig. 6b from 6c.
  auto prof = wc.prof_scope("tree");
  const gpusim::LaneMask all = wc.lanes();
  gpusim::Lanes<std::uint32_t> dst;
  gpusim::Lanes<std::uint32_t> src;
  gpusim::Lanes<typename Mem::value_type> a;
  gpusim::Lanes<typename Mem::value_type> b;
  // Lanes of `m` fold element local + `off` of their row into element
  // local: load both, then store the combination.
  auto combine = [&](gpusim::LaneMask m, std::uint32_t off) {
    gpusim::for_each_lane(m, [&](std::uint32_t l) {
      dst[l] = row_base[l] + local[l] * stride_elems;
      src[l] = row_base[l] + (local[l] + off) * stride_elems;
    });
    mem.load(wc, m, dst, a);
    mem.load(wc, m, src, b);
    gpusim::for_each_lane(
        m, [&](std::uint32_t l) { a[l] = op.apply(a[l], b[l]); });
    mem.store(wc, m, dst, a);
  };

  wc.syncthreads();  // order the callers' staging stores
  if (count <= 1) return;

  const std::uint32_t pow2 = std::bit_floor(count);
  // Pre-fold the non-power-of-2 overhang (§3.3): element i absorbs
  // element i + pow2 for i < count - pow2.
  if (count > pow2) {
    combine(gpusim::lanes_where(
                all, [&](std::uint32_t l) { return local[l] < count - pow2; }),
            pow2);
    wc.syncthreads();
  }

  if (opt.addr == AddrMode::kSequential) {
    bool tail_warp_scoped = false;
    for (std::uint32_t stride = pow2 / 2; stride >= 1; stride /= 2) {
      const bool warp_scope =
          opt.unroll_last_warp && warp_tail_ok && stride < 32;
      combine(gpusim::lanes_where(
                  all, [&](std::uint32_t l) { return local[l] < stride; }),
              stride);
      if (!opt.full_unroll) wc.alu(all, 2);  // loop bookkeeping per step
      if (warp_scope) {
        wc.syncwarp();
        tail_warp_scoped = true;
      } else {
        wc.syncthreads();
      }
    }
    // Publish the warp-private tail result to the whole block.
    if (tail_warp_scoped) wc.syncthreads();
  } else {
    // Interleaved-thread addressing (Harris kernel 1): thread 2*stride*m
    // folds element 2*stride*m + stride. Highly divergent within warps.
    for (std::uint32_t stride = 1; stride < pow2; stride *= 2) {
      combine(gpusim::lanes_where(all,
                                  [&](std::uint32_t l) {
                                    return local[l] < pow2 &&
                                           local[l] % (2 * stride) == 0;
                                  }),
              stride);
      if (!opt.full_unroll) wc.alu(all, 2);
      wc.syncthreads();  // active threads span warps throughout
    }
  }
}

template <typename T>
struct SharedMemOps {
  using value_type = T;
  gpusim::SharedView<T> view;
  void load(gpusim::WarpCtx& wc, gpusim::LaneMask m,
            const gpusim::Lanes<std::uint32_t>& i,
            gpusim::Lanes<T>& out) const {
    wc.lds(m, view, i, out);
  }
  void store(gpusim::WarpCtx& wc, gpusim::LaneMask m,
             const gpusim::Lanes<std::uint32_t>& i,
             const gpusim::Lanes<T>& v) const {
    wc.sts(m, view, i, v);
  }
};

template <typename T>
struct GlobalMemOps {
  using value_type = T;
  gpusim::GlobalView<T> view;
  /// Per lane: the lane's row region within the buffer.
  const gpusim::Lanes<std::size_t>& base;
  void load(gpusim::WarpCtx& wc, gpusim::LaneMask m,
            const gpusim::Lanes<std::uint32_t>& i,
            gpusim::Lanes<T>& out) const {
    wc.ld(m, view, at(m, i), out);
  }
  void store(gpusim::WarpCtx& wc, gpusim::LaneMask m,
             const gpusim::Lanes<std::uint32_t>& i,
             const gpusim::Lanes<T>& v) const {
    wc.st(m, view, at(m, i), v);
  }
  [[nodiscard]] gpusim::Lanes<std::size_t> at(
      gpusim::LaneMask m, const gpusim::Lanes<std::uint32_t>& i) const {
    gpusim::Lanes<std::size_t> g;
    gpusim::for_each_lane(m, [&](std::uint32_t l) { g[l] = base[l] + i[l]; });
    return g;
  }
};

}  // namespace detail

/// Reduce `count` elements at shared offsets row_base[l] + t*stride_elems
/// into each row's first element. `local[l]` = lane l's participant index
/// within its row (>= count for bystanders).
template <typename T, typename Op = acc::RuntimeOp<T>>
void block_tree_reduce(gpusim::WarpCtx& wc, gpusim::SharedView<T> sbuf,
                       const gpusim::Lanes<std::uint32_t>& row_base,
                       std::uint32_t count, std::uint32_t stride_elems,
                       const gpusim::Lanes<std::uint32_t>& local, Op op,
                       const TreeOptions& opt = {}) {
  const bool warp_ok = detail::warp_tail_allowed(stride_elems, wc.blockDim.x);
  if (warp_ok && opt.unroll_last_warp &&
      gpusim::lanes_where(wc.lanes(), [&](std::uint32_t l) {
        return row_base[l] % 32 != 0;
      }) != 0) {
    // Would make the syncwarp/syncthreads choice non-uniform across rows.
    throw std::invalid_argument(
        "block_tree_reduce: warp-synchronous tail requires warp-aligned row "
        "bases; disable unroll_last_warp for this layout");
  }
  detail::tree_reduce_impl(wc, detail::SharedMemOps<T>{sbuf}, row_base, count,
                           stride_elems, local, op, opt, warp_ok);
}

/// Same contract, operating on a global-memory region (§3.3 fallback when
/// shared memory is reserved for other data). `base[l]` addresses lane l's
/// row region of the staging buffer.
template <typename T, typename Op = acc::RuntimeOp<T>>
void block_tree_reduce_global(gpusim::WarpCtx& wc,
                              gpusim::GlobalView<T> gbuf,
                              const gpusim::Lanes<std::size_t>& base,
                              std::uint32_t count,
                              const gpusim::Lanes<std::uint32_t>& local, Op op,
                              const TreeOptions& opt = {}) {
  detail::tree_reduce_impl(wc, detail::GlobalMemOps<T>{gbuf, base},
                           gpusim::Lanes<std::uint32_t>{}, count, 1, local, op,
                           opt, /*warp_tail_ok=*/false);
}

/// The lane form for ThreadCtx kernels: the same tree, run on a width-1
/// view of the calling lane.
template <typename T, typename Op = acc::RuntimeOp<T>>
void block_tree_reduce(gpusim::ThreadCtx& ctx, gpusim::SharedView<T> sbuf,
                       std::uint32_t row_base, std::uint32_t count,
                       std::uint32_t stride_elems, std::uint32_t local, Op op,
                       const TreeOptions& opt = {}) {
  gpusim::WarpCtx wc(ctx);
  block_tree_reduce(wc, sbuf, gpusim::Lanes<std::uint32_t>{row_base}, count,
                    stride_elems, gpusim::Lanes<std::uint32_t>{local}, op, opt);
}

template <typename T, typename Op = acc::RuntimeOp<T>>
void block_tree_reduce_global(gpusim::ThreadCtx& ctx,
                              gpusim::GlobalView<T> gbuf, std::size_t base,
                              std::uint32_t count, std::uint32_t local, Op op,
                              const TreeOptions& opt = {}) {
  gpusim::WarpCtx wc(ctx);
  block_tree_reduce_global(wc, gbuf, gpusim::Lanes<std::size_t>{base}, count,
                           gpusim::Lanes<std::uint32_t>{local}, op, opt);
}

}  // namespace accred::reduce
