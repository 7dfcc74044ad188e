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
  gpusim::Lanes<std::uint64_t> slot;
  gpusim::for_each_lane(m, [&](std::uint32_t l) {
    slot[l] = kSpillBase + (block_base + wc.linear_tid(l)) * elem_size;
  });
  const auto bytes = static_cast<std::uint32_t>(elem_size);
  wc.touch_global(m, slot, bytes);  // load
  wc.touch_global(m, slot, bytes);  // store
}

inline void touch_spill(gpusim::ThreadCtx& ctx, const StrategyConfig& sc,
                        std::size_t elem_size) {
  gpusim::WarpCtx wc(ctx);
  touch_spill(wc, wc.lanes(), sc, elem_size);
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

/// Loop-body callables. Index arguments that a given strategy does not
/// iterate are passed as -1.
template <typename T>
struct Bindings {
  /// Contribution of one iteration at the reduction's accumulation site.
  std::function<T(gpusim::ThreadCtx&, std::int64_t k, std::int64_t j,
                  std::int64_t i)>
      contrib;
  /// Optional non-reduction work at the innermost loop (the "other levels
  /// execute in parallel" part of the paper's test cases).
  std::function<void(gpusim::ThreadCtx&, std::int64_t k, std::int64_t j,
                     std::int64_t i)>
      parallel_work;
  /// Per-instance initial value of the reduction variable (e.g. `i_sum = j`
  /// in Fig. 4a); folded in after the tree per §3.1.1. Null = identity.
  std::function<T(std::int64_t k, std::int64_t j)> instance_init;
  /// Per-instance result consumer, run by one device thread (e.g.
  /// `temp[k][j][0] = i_sum`). Required for per-instance strategies.
  std::function<void(gpusim::ThreadCtx&, std::int64_t k, std::int64_t j,
                     T result)>
      sink;
  /// Incoming value of the reduction variable for whole-nest (scalar)
  /// reductions; folded into the returned scalar.
  T host_init{};
  bool host_init_set = false;
};

template <typename T>
struct ReduceResult {
  std::optional<T> scalar;       ///< set by whole-nest strategies
  gpusim::LaunchStats stats;     ///< accumulated over all kernels
  int kernels = 0;               ///< number of kernel launches used
};

namespace detail {

template <typename T>
T fold_instance_init(const Bindings<T>& b, acc::RuntimeOp<T> op,
                     std::int64_t k, std::int64_t j, T tree_result) {
  if (b.instance_init) return op.apply(b.instance_init(k, j), tree_result);
  return tree_result;
}

template <typename T>
T fold_host_init(const Bindings<T>& b, acc::RuntimeOp<T> op, T fold) {
  if (b.host_init_set) return op.apply(b.host_init, fold);
  return fold;
}

}  // namespace detail

}  // namespace accred::reduce
