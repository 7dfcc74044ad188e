// The warp-level programming surface (DESIGN.md §12). A warp kernel runs
// once per warp of a block against a WarpCtx, which issues every memory
// access, ALU charge and barrier for a set of lanes at once: the shape of
// the paper's strategies, whose staging, trees and loops are warp
// instructions. Per-lane work (bodies wrapped by reduce::per_lane, and the
// payload, multi-variable and array-reduction bodies) runs through lane(l),
// a ThreadCtx view of one lane.
//
// launch() runs a warp kernel at one of two widths:
//   * 32: one lazily bound fiber per warp. A barrier parks the warp once
//     instead of once per lane, and each warp op books its lanes in
//     ascending lane order through one WarpLog call (one group lookup when
//     the lanes are at the same access ordinal, and a closed-form line run
//     when a global op's lanes are affine). Lane views are built on first
//     use;
//   * 1: one lane per context on the lane engine, every op forwarded to the
//     lane's ThreadCtx, which is exactly the event order of a ThreadCtx
//     kernel. launch() picks it whenever an order-dependent observer
//     (profiling, racecheck, a fault plan) is armed, or when blockDim.x is
//     not a multiple of 32 (a warp then spans two rows).
// Each lane's own sequence of events is the same at both widths.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <string_view>
#include <type_traits>

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

/// The values of a contiguous run of lanes lo..lo + count - 1 that step
/// by one constant: lane lo + i holds first + i·step (modulo 2^64).
struct AffineRun {
  std::uint64_t first = 0;
  std::uint64_t step = 0;
  std::uint32_t count = 0;
  /// The value of the run's highest lane.
  [[nodiscard]] std::uint64_t last() const noexcept {
    return first + (count - 1) * step;
  }
};

/// True when the lanes of `m` are one contiguous run whose values v[l]
/// step by one constant of at most `max_step`, described by `r` (step 0
/// for a single lane). Steps are taken modulo 2^64, so a negative one
/// exceeds any bound below 2^64 − 1. One compare pass that stops at the
/// first lane off the run, and makes no compare when the step is too
/// wide, so an instruction that falls back pays little for the test.
template <typename I>
[[nodiscard]] bool affine_run(LaneMask m, const Lanes<I>& v, AffineRun& r,
                              std::uint64_t max_step = ~std::uint64_t{0}) {
  if (m == 0) return false;
  const auto lo = static_cast<std::uint32_t>(std::countr_zero(m));
  const LaneMask run = m >> lo;
  if ((run & (run + 1)) != 0) return false;  // a gap between set lanes
  r.count = static_cast<std::uint32_t>(std::popcount(m));
  r.first = static_cast<std::uint64_t>(v[lo]);
  r.step = r.count > 1 ? static_cast<std::uint64_t>(v[lo + 1]) - r.first : 0;
  if (r.step > max_step) return false;
  for (std::uint32_t i = 2; i < r.count; ++i) {
    if (static_cast<std::uint64_t>(v[lo + i]) != r.first + i * r.step) {
      return false;
    }
  }
  return true;
}

/// Uninitialized room for the lane views of one warp; a width-32 WarpCtx
/// builds view l in it the first time lane(l) is called.
struct alignas(ThreadCtx) LaneViewSlots {
  std::byte bytes[WarpLog::kWarpSize * sizeof(ThreadCtx)];
};

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
        views_(reinterpret_cast<std::byte*>(&lane)),
        thread0_(lane.threadIdx),
        tid0_(lane.tid_),
        width_(1),
        built_(1),
        fiber_(false) {}

  /// Warp-fiber context over the 32 lanes of the warp whose lane 0 is
  /// thread `thread0`. Width 32 requires blockDim.x % 32 == 0, so the warp
  /// is one run of a row: lane l is thread (x0 + l, y0, z0). Lane views go
  /// into `views`, built on first use.
  WarpCtx(BlockState& block, Dim3 thread0, Dim3 block_idx, Dim3 block_dim,
          Dim3 grid_dim, LaneViewSlots& views) noexcept
      : blockIdx(block_idx),
        blockDim(block_dim),
        gridDim(grid_dim),
        block_(&block),
        views_(views.bytes),
        thread0_(thread0),
        tid0_(thread0.x + thread0.y * block_dim.x +
              thread0.z * block_dim.x * block_dim.y),
        width_(WarpLog::kWarpSize),
        built_(0),
        fiber_(true) {
    log_ = &block.warp_logs[tid0_ / WarpLog::kWarpSize];
  }

  // CUDA built-ins shared by every lane (same names on purpose).
  Dim3 blockIdx, blockDim, gridDim;  // NOLINT(readability-*)

  /// Lanes in this context: 1 at width 1, else the warp's lane count.
  [[nodiscard]] std::uint32_t width() const noexcept { return width_; }
  /// Mask of every lane of this context.
  [[nodiscard]] LaneMask lanes() const noexcept {
    return width_ == WarpLog::kWarpSize ? ~LaneMask{0}
                                        : (LaneMask{1} << width_) - 1;
  }
  /// ThreadCtx view of context lane `l`, for per-lane work, built the
  /// first time it is asked for. At width 32 it must not synchronize: its
  /// syncthreads and syncwarp throw.
  [[nodiscard]] ThreadCtx& lane(std::uint32_t l) noexcept {
    if ((built_ >> l & 1U) == 0) [[unlikely]] {
      ::new (static_cast<void*>(views_ + l * sizeof(ThreadCtx)))
          ThreadCtx(*block_, threadIdx(l), blockIdx, blockDim, gridDim);
      built_ |= LaneMask{1} << l;
    }
    return *std::launder(
        reinterpret_cast<ThreadCtx*>(views_ + l * sizeof(ThreadCtx)));
  }
  [[nodiscard]] Dim3 threadIdx(std::uint32_t l) const noexcept {
    return {thread0_.x + l, thread0_.y, thread0_.z};
  }
  [[nodiscard]] std::uint32_t linear_tid(std::uint32_t l) const noexcept {
    return tid0_ + l;
  }

  /// Block-wide barrier for every lane of the context. At width 32 it
  /// marks the lanes' phase and barrier ordinal, retires the warp's access
  /// groups (its pass is over, as for a lane pass) and parks the fiber.
  void syncthreads() {
    if (!fiber_) {
      lane(0).syncthreads();
      return;
    }
    for (std::uint32_t t = tid0_; t < tid0_ + width_; ++t) {
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
      lane(0).syncwarp();
      return;
    }
    block_->syncwarps += 1;
  }

  /// Profiling stage for every lane of the context (ThreadCtx::prof_scope).
  /// Width 32 never runs with profiling armed, so its scope is inert.
  [[nodiscard]] ThreadCtx::ProfScope prof_scope(std::string_view name) {
    if (!fiber_) return lane(0).prof_scope(name);
    return {};
  }

  /// Charge `units` of arithmetic work to each lane of `m`.
  void alu(LaneMask m, double units) {
    if (!fiber_) {
      if (m & 1U) lane(0).alu(units);
      return;
    }
    log_->alu_lanes(m, units);
  }

  /// ThreadCtx::touch_global for each lane of `m` at vaddr[l].
  void touch_global(LaneMask m, const Lanes<std::uint64_t>& vaddr,
                    std::uint32_t bytes) {
    if (!fiber_) {
      if (m & 1U) lane(0).touch_global(vaddr[0], bytes);
      return;
    }
    if (m == 0) return;
    AffineRun r;
    if (affine_run(m, vaddr, r, 128)) {
      log_->global_access_alu1_affine(m, r.first, r.step, bytes);
      return;
    }
    log_->global_access_alu1_lanes(m, vaddr.data(), bytes);
  }

  // ---- Lane-vector memory ops: lane l of `m` accesses element idx[l] ----
  // An empty mask issues nothing: its indices are never read or checked.

  template <typename T, typename I>
  void ld(LaneMask m, const GlobalView<T>& v, const Lanes<I>& idx,
          Lanes<T>& out) {
    if (!fiber_) {
      if (m & 1U) out[0] = lane(0).ld(v, static_cast<std::size_t>(idx[0]));
      return;
    }
    if (m == 0) return;
    if (!book_affine(m, v, idx)) book_lanes(m, v, idx, "global load");
    for_each_lane(m, [&](std::uint32_t l) {
      out[l] = v.data[static_cast<std::size_t>(idx[l])];
    });
  }

  template <typename T, typename I>
  void st(LaneMask m, const GlobalView<T>& v, const Lanes<I>& idx,
          const Lanes<T>& x) {
    if (!fiber_) {
      if (m & 1U) lane(0).st(v, static_cast<std::size_t>(idx[0]), x[0]);
      return;
    }
    if (m == 0) return;
    if (!book_affine(m, v, idx)) book_lanes(m, v, idx, "global store");
    for_each_lane(m, [&](std::uint32_t l) {
      v.data[static_cast<std::size_t>(idx[l])] = x[l];
    });
  }

  template <typename T, typename I>
  void lds(LaneMask m, const SharedView<T>& v, const Lanes<I>& idx,
           Lanes<T>& out) {
    if (!fiber_) {
      if (m & 1U) out[0] = lane(0).lds(v, static_cast<std::size_t>(idx[0]));
      return;
    }
    if (m == 0) return;
    Lanes<std::uint32_t> off{};
    for_each_lane(m, [&](std::uint32_t l) {
      off[l] = ThreadCtx::check_shared(
          *block_, v, static_cast<std::size_t>(idx[l]), "shared load");
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
      if (m & 1U) lane(0).sts(v, static_cast<std::size_t>(idx[0]), x[0]);
      return;
    }
    if (m == 0) return;
    Lanes<std::uint32_t> off{};
    for_each_lane(m, [&](std::uint32_t l) {
      off[l] = ThreadCtx::check_shared(
          *block_, v, static_cast<std::size_t>(idx[l]), "shared store");
    });
    log_->shared_access_alu1_lanes(m, off.data(), sizeof(T));
    for_each_lane(m, [&](std::uint32_t l) {
      std::memcpy(block_->shared.data() + off[l], &x[l], sizeof(T));
    });
  }

private:
  static_assert(std::is_trivially_destructible_v<ThreadCtx>,
                "an abandoned warp fiber never destroys its lane views");

  /// Book a global access of `v` at idx[l] for each lane of `m` in closed
  /// form when the lanes are an affine run at most 128 bytes apart whose
  /// first and last lanes are in bounds (then so is every lane between);
  /// otherwise book nothing and return false.
  template <typename T, typename I>
  bool book_affine(LaneMask m, const GlobalView<T>& v, const Lanes<I>& idx) {
    AffineRun r;
    if (!affine_run(m, idx, r, 128 / sizeof(T))) return false;
    if (r.first >= v.size || r.last() >= v.size) return false;
    log_->global_access_alu1_affine(m, v.addr_of(r.first), r.step * sizeof(T),
                                    sizeof(T));
    return true;
  }

  /// Bounds-check each lane of `m` in lane order (the first lane out of
  /// bounds throws) and book the lanes' addresses.
  template <typename T, typename I>
  void book_lanes(LaneMask m, const GlobalView<T>& v, const Lanes<I>& idx,
                  const char* what) {
    Lanes<std::uint64_t> addr{};
    for_each_lane(m, [&](std::uint32_t l) {
      const auto i = static_cast<std::size_t>(idx[l]);
      ThreadCtx::check_global(v, i, what);
      addr[l] = v.addr_of(i);
    });
    log_->global_access_alu1_lanes(m, addr.data(), sizeof(T));
  }

  BlockState* block_;
  WarpLog* log_;
  /// Lane view storage: the width-1 lane itself, or the warp's slots.
  std::byte* views_;
  Dim3 thread0_;        ///< threadIdx of lane 0
  std::uint32_t tid0_;  ///< linear tid of lane 0
  std::uint32_t width_;
  LaneMask built_;  ///< lanes whose view is built
  /// True when this context owns its warp's fiber (width 32); false for a
  /// width-1 view, whose ops forward to the lane's ThreadCtx.
  bool fiber_;
};

}  // namespace accred::gpusim
