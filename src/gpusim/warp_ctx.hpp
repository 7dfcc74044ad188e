// The warp-level programming surface (DESIGN.md §12). A warp kernel runs
// once per warp of a block against a WarpCtx, which issues every memory
// access, ALU charge and barrier for a set of lanes at once: the shape of
// the paper's strategies, whose staging, trees and loops are warp
// instructions. Per-lane work (bodies wrapped by reduce::per_lane,
// array-reduction bodies) runs through lane(l), a ThreadCtx view of one
// lane.
//
// launch() runs a warp kernel at one of two widths:
//   * 32: one lazily bound fiber per warp. A barrier parks the warp once
//     instead of once per lane, and each warp op books its lanes in
//     ascending lane order through one WarpLog call (one group lookup when
//     the lanes are at the same access ordinal);
//   * 1: one lane per context on the lane engine, every op forwarded to the
//     lane's ThreadCtx, which is exactly the event order of a ThreadCtx
//     kernel. launch() picks it whenever an order-dependent observer
//     (profiling, racecheck, a fault plan) is armed, or when blockDim.x is
//     not a multiple of 32 (a warp then spans two rows).
// Each lane's own sequence of events is the same at both widths.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "gpusim/thread_ctx.hpp"

namespace accred::gpusim {

/// One value per lane of a warp context (the first width() are used).
template <typename T>
using Lanes = std::array<T, WarpLog::kWarpSize>;

/// The lanes of `m` for which pred(l) holds.
template <typename P>
[[nodiscard]] LaneMask lanes_where(LaneMask m, P&& pred) {
  LaneMask out = 0;
  for_each_lane(m, [&](std::uint32_t l) {
    out |= static_cast<LaneMask>(static_cast<bool>(pred(l))) << l;
  });
  return out;
}

class WarpCtx {
public:
  /// Width-1 context over one running lane. Every op, barriers included,
  /// forwards to `lane`, so its events are exactly that ThreadCtx's. The
  /// width-1 launch path and the ThreadCtx overloads of reduce/tree.hpp
  /// run warp code this way.
  explicit WarpCtx(ThreadCtx& lane) noexcept
      : blockIdx(lane.blockIdx),
        blockDim(lane.blockDim),
        gridDim(lane.gridDim),
        block_(lane.block_),
        log_(lane.log_),
        lanes_(&lane),
        width_(1),
        fiber_(false) {}

  /// Warp-fiber context over the `count` lane views at `lanes`, the lanes
  /// of one warp in order (built by the block scheduler).
  WarpCtx(ThreadCtx* lanes, std::uint32_t count) noexcept
      : blockIdx(lanes[0].blockIdx),
        blockDim(lanes[0].blockDim),
        gridDim(lanes[0].gridDim),
        block_(lanes[0].block_),
        log_(lanes[0].log_),
        lanes_(lanes),
        width_(count),
        fiber_(true) {}

  // CUDA built-ins shared by every lane (same names on purpose).
  Dim3 blockIdx, blockDim, gridDim;  // NOLINT(readability-*)

  /// Lanes in this context: 1 at width 1, else the warp's lane count.
  [[nodiscard]] std::uint32_t width() const noexcept { return width_; }
  /// Mask of every lane of this context.
  [[nodiscard]] LaneMask lanes() const noexcept {
    return width_ == WarpLog::kWarpSize ? ~LaneMask{0}
                                        : (LaneMask{1} << width_) - 1;
  }
  /// ThreadCtx view of context lane `l`, for per-lane work. At width 32 it
  /// must not synchronize: its syncthreads and syncwarp throw.
  [[nodiscard]] ThreadCtx& lane(std::uint32_t l) noexcept { return lanes_[l]; }
  [[nodiscard]] const Dim3& threadIdx(std::uint32_t l) const noexcept {
    return lanes_[l].threadIdx;
  }
  [[nodiscard]] std::uint32_t linear_tid(std::uint32_t l) const noexcept {
    return lanes_[l].linear_tid();
  }

  /// Block-wide barrier for every lane of the context. At width 32 it
  /// marks the lanes' phase and barrier ordinal, retires the warp's access
  /// groups (its pass is over, as for a lane pass) and parks the fiber.
  void syncthreads() {
    if (!fiber_) {
      lanes_[0].syncthreads();
      return;
    }
    const std::uint32_t first = lanes_[0].linear_tid();
    for (std::uint32_t t = first; t < first + width_; ++t) {
      block_->phase[t] = ThreadPhase::kAtBarrier;
      block_->barrier_seq[t] += 1;
    }
    log_->flush_pending();
    block_->chain->park();
  }

  /// Warp rendezvous. At width 32 the warp is already converged: one
  /// rendezvous is counted and nothing parks.
  void syncwarp() {
    if (!fiber_) {
      lanes_[0].syncwarp();
      return;
    }
    block_->syncwarps += 1;
  }

  /// Profiling stage for every lane of the context (ThreadCtx::prof_scope).
  /// Width 32 never runs with profiling armed, so its scope is inert.
  [[nodiscard]] ThreadCtx::ProfScope prof_scope(std::string_view name) {
    if (!fiber_) return lanes_[0].prof_scope(name);
    return {};
  }

  /// Charge `units` of arithmetic work to each lane of `m`.
  void alu(LaneMask m, double units) {
    if (!fiber_) {
      if (m & 1U) lanes_[0].alu(units);
      return;
    }
    log_->alu_lanes(m, units);
  }

  /// ThreadCtx::touch_global for each lane of `m` at vaddr[l].
  void touch_global(LaneMask m, const Lanes<std::uint64_t>& vaddr,
                    std::uint32_t bytes) {
    if (!fiber_) {
      if (m & 1U) lanes_[0].touch_global(vaddr[0], bytes);
      return;
    }
    log_->global_access_alu1_lanes(m, vaddr.data(), bytes);
  }

  // ---- Lane-vector memory ops: lane l of `m` accesses element idx[l] ----

  template <typename T, typename I>
  void ld(LaneMask m, const GlobalView<T>& v, const Lanes<I>& idx,
          Lanes<T>& out) {
    if (!fiber_) {
      if (m & 1U) out[0] = lanes_[0].ld(v, static_cast<std::size_t>(idx[0]));
      return;
    }
    Lanes<std::uint64_t> addr{};
    for_each_lane(m, [&](std::uint32_t l) {
      const auto i = static_cast<std::size_t>(idx[l]);
      ThreadCtx::check_global(v, i, "global load");
      addr[l] = v.addr_of(i);
    });
    log_->global_access_alu1_lanes(m, addr.data(), sizeof(T));
    for_each_lane(m, [&](std::uint32_t l) {
      out[l] = v.data[static_cast<std::size_t>(idx[l])];
    });
  }

  template <typename T, typename I>
  void st(LaneMask m, const GlobalView<T>& v, const Lanes<I>& idx,
          const Lanes<T>& x) {
    if (!fiber_) {
      if (m & 1U) lanes_[0].st(v, static_cast<std::size_t>(idx[0]), x[0]);
      return;
    }
    Lanes<std::uint64_t> addr{};
    for_each_lane(m, [&](std::uint32_t l) {
      const auto i = static_cast<std::size_t>(idx[l]);
      ThreadCtx::check_global(v, i, "global store");
      addr[l] = v.addr_of(i);
    });
    log_->global_access_alu1_lanes(m, addr.data(), sizeof(T));
    for_each_lane(m, [&](std::uint32_t l) {
      v.data[static_cast<std::size_t>(idx[l])] = x[l];
    });
  }

  template <typename T, typename I>
  void lds(LaneMask m, const SharedView<T>& v, const Lanes<I>& idx,
           Lanes<T>& out) {
    if (!fiber_) {
      if (m & 1U) out[0] = lanes_[0].lds(v, static_cast<std::size_t>(idx[0]));
      return;
    }
    Lanes<std::uint32_t> off{};
    for_each_lane(m, [&](std::uint32_t l) {
      off[l] = lanes_[0].check_shared(v, static_cast<std::size_t>(idx[l]),
                                      "shared load");
    });
    log_->shared_access_alu1_lanes(m, off.data(), sizeof(T));
    for_each_lane(m, [&](std::uint32_t l) {
      std::memcpy(&out[l], block_->shared.data() + off[l], sizeof(T));
    });
  }

  template <typename T, typename I>
  void sts(LaneMask m, const SharedView<T>& v, const Lanes<I>& idx,
           const Lanes<T>& x) {
    if (!fiber_) {
      if (m & 1U) lanes_[0].sts(v, static_cast<std::size_t>(idx[0]), x[0]);
      return;
    }
    Lanes<std::uint32_t> off{};
    for_each_lane(m, [&](std::uint32_t l) {
      off[l] = lanes_[0].check_shared(v, static_cast<std::size_t>(idx[l]),
                                      "shared store");
    });
    log_->shared_access_alu1_lanes(m, off.data(), sizeof(T));
    for_each_lane(m, [&](std::uint32_t l) {
      std::memcpy(block_->shared.data() + off[l], &x[l], sizeof(T));
    });
  }

private:
  BlockState* block_;
  WarpLog* log_;
  ThreadCtx* lanes_;
  std::uint32_t width_;
  /// True when this context owns its warp's fiber (width 32); false for a
  /// width-1 view, whose ops forward to the lane's ThreadCtx.
  bool fiber_;
};

}  // namespace accred::gpusim
