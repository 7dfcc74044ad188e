// Common vocabulary for the reduction-strategy kernels: configuration
// knobs (each one a design choice the paper discusses), the loop-body
// bindings a strategy needs, and the result/metrics bundle.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "acc/ir.hpp"
#include "acc/ops.hpp"
#include "gpusim/launch.hpp"
#include "reduce/tree.hpp"
#include "reduce/window.hpp"

namespace accred::reduce {

/// Where per-thread partials are staged for the in-block tree (§3.3: the
/// global fallback exists because shared memory may be reserved for other
/// computation, and is the modeled PGI behaviour).
enum class Staging : std::uint8_t { kShared, kGlobal };

/// Fig. 6(b) vs 6(c): how vector partials are laid out in shared memory.
enum class VectorLayout : std::uint8_t {
  kRowContiguous,  ///< Fig. 6c, OpenUH: thread layout matches data layout
  kTransposed,     ///< Fig. 6b: transposed, bank-conflicted
};

/// Fig. 8(b) vs 8(c): how worker partials are staged.
enum class WorkerLayout : std::uint8_t {
  kFirstRow,        ///< Fig. 8c, OpenUH: W values in the first row
  kDuplicatedRows,  ///< Fig. 8b: every row holds a duplicate of the values
};

/// Everything a strategy needs besides the nest itself. The defaults are
/// the OpenUH choices; the baseline profiles override them.
struct StrategyConfig {
  Staging staging = Staging::kShared;
  VectorLayout vector_layout = VectorLayout::kRowContiguous;
  WorkerLayout worker_layout = WorkerLayout::kFirstRow;
  Assignment assignment = Assignment::kWindow;
  TreeOptions tree{};
  gpusim::SimOptions sim{};
  /// Thread count of the single-block finalization kernel (gang / RMP).
  std::uint32_t finalize_threads = 256;
  /// Model a compiler that keeps the private reduction accumulator in
  /// (spilled) global memory: every contribution pays a read-modify-write
  /// of a per-thread slot. This is the dominant overhead the modeled PGI
  /// profile exhibits across Table 2 (see profiles.cpp).
  bool spill_private = false;
};

/// SimOptions for one strategy kernel launch, tagged with its role name
/// for the exported trace (obs/trace.hpp). An explicit label set by the
/// caller wins; labels never affect simulation or stats.
[[nodiscard]] inline gpusim::SimOptions labeled_sim(gpusim::SimOptions sim,
                                                    const char* label) {
  if (sim.label.empty()) sim.label = label;
  return sim;
}

/// One loop level's index per lane of a binding call: lane l of the call's
/// mask runs iteration k[l] (j[l], i[l]); entries of other lanes are
/// unspecified. A level the strategy does not iterate reads -1.
using LaneIndex = gpusim::Lanes<std::int64_t>;

namespace detail {

/// Cost-model annotation for the spilled accumulator: one coalesced
/// read + write of each lane's slot in a virtual spill region, for the
/// lanes of `m`.
inline void touch_spill(gpusim::WarpCtx& wc, gpusim::LaneMask m,
                        const StrategyConfig& sc, std::size_t elem_size) {
  if (!sc.spill_private) return;
  constexpr std::uint64_t kSpillBase = 1ULL << 40;
  const std::uint64_t block_base =
      static_cast<std::uint64_t>(wc.blockIdx.x) * wc.blockDim.count();
  gpusim::Lanes<std::uint64_t> slot{};
  gpusim::for_each_lane(m, [&](std::uint32_t l) {
    slot[l] = kSpillBase + (block_base + wc.linear_tid(l)) * elem_size;
  });
  const auto bytes = static_cast<std::uint32_t>(elem_size);
  wc.touch_global(m, slot, bytes);  // load
  wc.touch_global(m, slot, bytes);  // store
}

/// Index of a loop level the strategy does not iterate, in every lane.
inline constexpr LaneIndex kNoIndex = [] {
  LaneIndex none{};
  none.fill(-1);
  return none;
}();

/// A uniform index `v` in every lane.
[[nodiscard]] inline LaneIndex splat(std::int64_t v) {
  LaneIndex all;
  all.fill(v);
  return all;
}

/// Per lane of the context: threadIdx.x, threadIdx.y and the linear tid.
struct LaneCoords {
  gpusim::Lanes<std::uint32_t> x{};
  gpusim::Lanes<std::uint32_t> y{};
  gpusim::Lanes<std::uint32_t> tid{};
  explicit LaneCoords(const gpusim::WarpCtx& wc) {
    for (std::uint32_t l = 0; l < wc.width(); ++l) {
      x[l] = wc.threadIdx(l).x;
      y[l] = wc.threadIdx(l).y;
      tid[l] = wc.linear_tid(l);
    }
  }
};

}  // namespace detail

/// Extents of the canonical triple nest: k (gang loop), j (worker loop),
/// i (vector loop). Unused levels have extent 1.
struct Nest3 {
  std::int64_t nk = 1;
  std::int64_t nj = 1;
  std::int64_t ni = 1;
};

/// Loop-body callables, in warp form: a strategy calls each once per warp
/// instruction, with its WarpCtx, the active lanes and each lane's
/// iteration, and the callable issues the lanes' accesses as warp ops (an
/// affine contribution is one wc.ld). A body written for one lane at a time
/// wraps in per_lane() below.
template <typename T>
struct Bindings {
  /// Contribution at the reduction's accumulation site: out[l] for each
  /// lane l of the mask.
  std::function<void(gpusim::WarpCtx&, gpusim::LaneMask, const LaneIndex& k,
                     const LaneIndex& j, const LaneIndex& i,
                     gpusim::Lanes<T>& out)>
      contrib;
  /// Optional non-reduction work at the innermost loop (the "other levels
  /// execute in parallel" part of the paper's test cases).
  std::function<void(gpusim::WarpCtx&, gpusim::LaneMask, const LaneIndex& k,
                     const LaneIndex& j, const LaneIndex& i)>
      parallel_work;
  /// Per-instance initial value of the reduction variable (e.g. `i_sum = j`
  /// in Fig. 4a); folded in after the tree per §3.1.1. A host-side value,
  /// not device work. Null = identity.
  std::function<T(std::int64_t k, std::int64_t j)> instance_init;
  /// Per-instance result consumer (e.g. `temp[k][j][0] = i_sum`): lane l of
  /// the mask is the one device thread holding instance (k[l], j[l])'s
  /// result[l]. Required for per-instance strategies.
  std::function<void(gpusim::WarpCtx&, gpusim::LaneMask, const LaneIndex& k,
                     const LaneIndex& j, const gpusim::Lanes<T>& result)>
      sink;
  /// Incoming value of the reduction variable for whole-nest (scalar)
  /// reductions; folded into the returned scalar.
  T host_init{};
  bool host_init_set = false;
};

/// Adapt a body written for one lane to any Bindings member: the result
/// runs `f` on wc.lane(l) for each lane l of the mask, lowest lane first.
/// `f` takes (ThreadCtx&, k, j, i) and returns the contribution (contrib)
/// or nothing (parallel_work), or takes (ThreadCtx&, k, j, result) (sink).
/// At width 32 the lane view must not synchronize (warp_ctx.hpp).
template <typename F>
[[nodiscard]] auto per_lane(F f) {
  return [f = std::move(f)](gpusim::WarpCtx& wc, gpusim::LaneMask m,
                            const LaneIndex& k, const LaneIndex& j,
                            const auto& last, auto&... out) {
    static_assert(sizeof...(out) <= 1, "per_lane: unknown binding shape");
    gpusim::for_each_lane(m, [&](std::uint32_t l) {
      if constexpr (sizeof...(out) == 1) {
        ((out[l] = f(wc.lane(l), k[l], j[l], last[l])), ...);
      } else {
        f(wc.lane(l), k[l], j[l], last[l]);
      }
    });
  };
}

template <typename T>
struct ReduceResult {
  std::optional<T> scalar;       ///< set by whole-nest strategies
  gpusim::LaunchStats stats;     ///< accumulated over all kernels
  int kernels = 0;               ///< number of kernel launches used
};

namespace detail {

/// priv[l] = op(priv[l], val[l]) for each lane l of `m`.
template <typename T>
void fold_lanes(acc::RuntimeOp<T> op, gpusim::LaneMask m,
                gpusim::Lanes<T>& priv, const gpusim::Lanes<T>& val) {
  gpusim::for_each_lane(
      m, [&](std::uint32_t l) { priv[l] = op.apply(priv[l], val[l]); });
}

/// One warp instruction of a private partial's innermost loop, for the
/// lanes of `m` at iteration (k, j, i): index bookkeeping, the optional
/// parallel work, the contribution (into `val`), the fold into `priv`, and
/// the spilled accumulator's touch. `b` holds Bindings' contrib and
/// parallel_work (a Bindings<T> or a FusedChainBindings<T>).
template <typename T, typename B>
void fold_step(gpusim::WarpCtx& wc, const StrategyConfig& sc, const B& b,
               acc::RuntimeOp<T> op, gpusim::LaneMask m,
               const LaneIndex& k, const LaneIndex& j, const LaneIndex& i,
               gpusim::Lanes<T>& priv, gpusim::Lanes<T>& val) {
  wc.alu(m, 2);  // index bookkeeping per Fig. 3 iteration
  if (b.parallel_work) b.parallel_work(wc, m, k, j, i);
  b.contrib(wc, m, k, j, i, val);
  fold_lanes(op, m, priv, val);
  wc.alu(m, 1);
  touch_spill(wc, m, sc, sizeof(T));
}

/// The private partials of instance `k`'s (j, i) nest over the lanes of
/// `active`: lane l walks row c.y[l]'s and column c.x[l]'s windows.
template <typename T>
void fold_rows(gpusim::WarpCtx& wc, const StrategyConfig& sc, Nest3 n,
               std::uint32_t w, std::uint32_t v, const LaneCoords& c,
               gpusim::LaneMask active, const LaneIndex& k,
               const Bindings<T>& b, acc::RuntimeOp<T> op,
               gpusim::Lanes<T>& priv) {
  gpusim::Lanes<T> val{};
  warp_device_loop(
      sc.assignment, n.nj, c.y, w, active,
      [&](gpusim::LaneMask mj, const LaneIndex& j) {
        warp_device_loop(sc.assignment, n.ni, c.x, v, mj,
                         [&](gpusim::LaneMask mi, const LaneIndex& i) {
                           fold_step(wc, sc, b, op, mi, k, j, i, priv, val);
                         });
      });
}

/// Hand the instance results of the lanes of `m` (lane l: instance
/// (k[l], j[l]), tree result r[l]) to the sink, each with its initial value
/// folded in.
template <typename T>
void sink_lanes(const Bindings<T>& b, acc::RuntimeOp<T> op,
                gpusim::WarpCtx& wc, gpusim::LaneMask m, const LaneIndex& k,
                const LaneIndex& j, gpusim::Lanes<T>& r) {
  if (m == 0) return;
  if (b.instance_init) {
    gpusim::for_each_lane(m, [&](std::uint32_t l) {
      r[l] = op.apply(b.instance_init(k[l], j[l]), r[l]);
    });
  }
  b.sink(wc, m, k, j, r);
}

template <typename T>
T fold_host_init(const Bindings<T>& b, acc::RuntimeOp<T> op, T fold) {
  if (b.host_init_set) return op.apply(b.host_init, fold);
  return fold;
}

}  // namespace detail

}  // namespace accred::reduce
