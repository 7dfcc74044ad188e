// Iteration-assignment helpers implementing the paper's Fig. 3 mapping.
//
// OpenUH assigns loop iterations to threads with a *window-sliding*
// (grid-stride) scheme: thread `id` handles id, id+n, id+2n, ... so that a
// warp's lanes touch adjacent elements each step (coalescing-friendly,
// §3.1.3). The *blocking* scheme (contiguous chunk per thread) is provided
// as the baseline the paper argues against.
//
// Two loop shapes are provided: device_loop has true while-loop semantics
// (only in-range iterations execute — what Fig. 3 compiles to), while
// warp_assigned_loop is padded so every thread runs the same iteration
// count, which barrier-bearing loop bodies require. Both remove any
// power-of-2 restriction on the iteration space (§3.3). The loops over a
// thread's own iterations are warp forms for warp kernels
// (gpusim/warp_ctx.hpp): lane l runs thread id[l]'s iterations, in order;
// device_loop's scalar form serves loops uniform across a block (the gang
// loop over blockIdx.x).
#pragma once

#include <algorithm>
#include <cstdint>

#include "gpusim/warp_ctx.hpp"

namespace accred::reduce {

enum class Assignment : std::uint8_t {
  kWindow,    ///< OpenUH: stride = thread count (coalesced)
  kBlocking,  ///< baseline: contiguous chunk per thread
};

[[nodiscard]] constexpr std::int64_t ceil_div(std::int64_t a,
                                              std::int64_t b) noexcept {
  return (a + b - 1) / b;
}

/// True while-loop semantics of Fig. 3: `body(index)` runs only for
/// in-range iterations of this thread. Use for loop levels whose body
/// contains no block barrier (otherwise see warp_assigned_loop). A thread
/// whose window is empty executes nothing, exactly like `while (i < n)`.
template <typename F>
void device_loop(Assignment mode, std::int64_t extent, std::int64_t id,
                 std::int64_t nthreads, F&& body) {
  if (mode == Assignment::kWindow) {
    for (std::int64_t idx = id; idx < extent; idx += nthreads) body(idx);
  } else {
    const std::int64_t chunk = ceil_div(extent, nthreads);
    const std::int64_t end = std::min(extent, (id + 1) * chunk);
    for (std::int64_t idx = id * chunk; idx < end; ++idx) body(idx);
  }
}

/// Warp form of device_loop over the lanes of `active`: body(m, idx) runs
/// once per step for the lanes m still in range, lane l at iteration
/// idx[l]. Each lane sees exactly device_loop's iterations; a lane whose
/// window is empty never appears in m.
template <typename I, typename F>
void warp_device_loop(Assignment mode, std::int64_t extent,
                      const gpusim::Lanes<I>& id, std::int64_t nthreads,
                      gpusim::LaneMask active, F&& body) {
  gpusim::Lanes<std::int64_t> idx{};
  gpusim::Lanes<std::int64_t> end{};
  std::int64_t step = nthreads;
  if (mode == Assignment::kWindow) {
    gpusim::for_each_lane(active, [&](std::uint32_t l) {
      idx[l] = static_cast<std::int64_t>(id[l]);
      end[l] = extent;
    });
  } else {
    const std::int64_t chunk = ceil_div(extent, nthreads);
    gpusim::for_each_lane(active, [&](std::uint32_t l) {
      const auto t = static_cast<std::int64_t>(id[l]);
      idx[l] = t * chunk;
      end[l] = std::min(extent, (t + 1) * chunk);
    });
    step = 1;
  }
  const auto in_range = [&](std::uint32_t l) { return idx[l] < end[l]; };
  for (gpusim::LaneMask m = gpusim::lanes_where(active, in_range); m != 0;
       m = gpusim::lanes_where(m, in_range)) {
    body(m, static_cast<const gpusim::Lanes<std::int64_t>&>(idx));
    gpusim::for_each_lane(m, [&](std::uint32_t l) { idx[l] += step; });
  }
}

/// Padded loop over the lanes of `lanes`: body(idx, m) runs exactly
/// ceil(extent / nthreads) times, lane l at iteration idx[l], with m the
/// lanes whose iteration is in range. Required when the body contains
/// syncthreads (e.g. a staged tree per instance): every thread of the block
/// must reach each barrier the same number of times even when the extent
/// does not divide evenly.
template <typename I, typename F>
void warp_assigned_loop(Assignment mode, std::int64_t extent,
                        const gpusim::Lanes<I>& id, std::int64_t nthreads,
                        gpusim::LaneMask lanes, F&& body) {
  const std::int64_t iters = ceil_div(extent, nthreads);
  gpusim::Lanes<std::int64_t> idx{};
  for (std::int64_t it = 0; it < iters; ++it) {
    gpusim::for_each_lane(lanes, [&](std::uint32_t l) {
      const auto t = static_cast<std::int64_t>(id[l]);
      idx[l] = mode == Assignment::kWindow ? t + it * nthreads
                                           : t * iters + it;
    });
    body(static_cast<const gpusim::Lanes<std::int64_t>&>(idx),
         gpusim::lanes_where(lanes,
                             [&](std::uint32_t l) { return idx[l] < extent; }));
  }
}

}  // namespace accred::reduce
