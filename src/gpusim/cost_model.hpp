// Analytic Kepler (K20c) cost model, fed by memory/ALU/barrier events that
// the SIMT scheduler records while simulating a kernel.
//
// The model is intentionally simple but captures exactly the effects the
// paper attributes performance differences to:
//   * global-memory coalescing: each warp's k-th global access forms a
//     "request group"; its cost is the number of 128-byte segments the
//     group's lanes touch (Fig. 6 and the window-sliding-vs-blocking
//     discussion in §3.1.3),
//   * shared-memory bank conflicts: a group's cost is its serialization
//     degree over the 32 four-byte banks (Fig. 6b vs. 6c, Fig. 8b vs. 8c),
//   * barriers: syncthreads costs scale with resident warps, syncwarp is
//     free on Kepler's SIMD-synchronous warps (§3.1.2),
//   * occupancy: blocks are distributed round-robin over 13 SMs; a launch
//     that only produces 2 populated blocks (the paper's single-level
//     vector/worker cases) leaves 11 SMs idle,
//   * kernel-launch overhead: the gang / RMP strategies pay for a second
//     kernel.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "gpusim/dim3.hpp"
#include "gpusim/error.hpp"
#include "gpusim/faultinject.hpp"
#include "gpusim/racecheck.hpp"
#include "obs/profiler.hpp"

namespace accred::gpusim {

/// Model constants, all in nanoseconds (per event) unless noted. Calibrated
/// once against the OpenUH column of the paper's Table 2 (see
/// EXPERIMENTS.md); treat as a fixed device description, not a tuning knob
/// per experiment.
struct CostParams {
  double launch_overhead_ns = 5000.0;  ///< per kernel launch
  double gmem_segment_ns = 60.0;       ///< per 128B segment per warp group
                                       ///< (latency-dominated; see below)
  double smem_cycle_ns = 4.0;          ///< per (conflict-serialized) shared access
  double alu_ns = 1.0;                 ///< per charged ALU unit (warp-max lane)
  double barrier_ns = 150.0;           ///< per syncthreads per block
  double h2d_bandwidth_gbs = 6.0;      ///< PCIe gen2 x16 effective
  double dev_bandwidth_gbs = 150.0;    ///< device-wide DRAM floor
  double warp_ilp = 4.0;               ///< quad warp scheduler
  // Calibration note: the per-warp segment cost is deliberately closer to
  // amortized access latency than to pure DRAM throughput. The paper's
  // Table 2 magnitudes (e.g. 274 ms for the 2-gang vector case) imply its
  // generated kernels ran SM-latency-bound, not bandwidth-bound; with a
  // throughput-level segment cost the single-level cases would collapse
  // onto the DRAM floor and the occupancy shapes of Table 2 would vanish.
};

/// Totals accumulated over one kernel launch.
struct LaunchStats {
  std::uint64_t blocks = 0;
  std::uint64_t threads = 0;
  std::uint64_t gmem_requests = 0;    ///< warp-level access groups
  std::uint64_t gmem_segments = 0;    ///< 128B transactions after coalescing
  std::uint64_t gmem_bytes = 0;       ///< useful bytes moved
  std::uint64_t smem_requests = 0;    ///< warp-level shared access groups
  std::uint64_t smem_cycles = 0;      ///< groups weighted by conflict degree
  std::uint64_t barriers = 0;         ///< block-wide syncthreads executed
  std::uint64_t syncwarps = 0;
  double alu_units = 0;               ///< sum over warps of per-epoch lane max
  double device_time_ns = 0;          ///< modeled kernel time
  double wall_time_ns = 0;            ///< host simulation time (informational)
  /// Per-stage attribution of the event totals above (obs/profiler.hpp),
  /// populated only when the launch ran with profiling on — empty (and
  /// allocation-free) otherwise. operator+= merges tables by stage name,
  /// so multi-kernel strategies accumulate one profile across launches.
  obs::StageTable profile;
  /// Dynamic race detection results (racecheck.hpp): whether this launch
  /// ran under the detector, the exact conflicting-pair count, and the
  /// first reports (deduplicated per word and hazard kind, capped at
  /// RaceChecker::kMaxReportsPerLaunch). Empty — and allocation-free —
  /// when racecheck is off; operator+= ORs the flag and concatenates
  /// reports up to the cap, so multi-kernel strategies accumulate one
  /// race summary across launches.
  bool racecheck = false;
  std::uint64_t races = 0;
  std::vector<RaceReport> race_reports;
  /// Blocks that saw CUDA-UB barrier behaviour the lenient default rode
  /// through (scheduler.cpp): threads exiting while peers wait, or threads
  /// meeting at different syncthreads call sites. Zero for every correct
  /// kernel — emitted in records only when nonzero, so baselines are safe.
  std::uint64_t barrier_exit_divergence = 0;
  std::uint64_t barrier_site_mismatch = 0;
  /// Fault injection (faultinject.hpp): whether this launch ran with a
  /// fault plan armed, and the faults that fired, merged block-ordered.
  /// Both empty/false — and allocation-free — with injection off.
  bool faults_armed = false;
  std::vector<FaultEvent> fault_events;
  /// The structured failure a recovering harness (testsuite runner or the
  /// degradation executor) caught for this launch; code == kNone for every
  /// successful launch, and the field is only serialized when set.
  LaunchErrorInfo error;

  LaunchStats& operator+=(const LaunchStats& o);
};

/// Derived convenience metrics.
[[nodiscard]] double coalescing_efficiency(const LaunchStats& s);
[[nodiscard]] double bank_conflict_factor(const LaunchStats& s);

/// Lanes of a warp: bit l set means lane l takes part.
using LaneMask = std::uint32_t;

/// Every lane of a full warp.
inline constexpr LaneMask kAllLanes = ~LaneMask{0};

/// Call f(l) for every set lane of `m`, lowest lane first. A full mask, the
/// common case of a converged warp, runs a plain loop instead of a bit scan.
template <typename F>
void for_each_lane(LaneMask m, F&& f) {
  if (m == kAllLanes) {
    for (std::uint32_t l = 0; l < 32; ++l) f(l);
    return;
  }
  while (m != 0) {
    f(static_cast<std::uint32_t>(std::countr_zero(m)));
    m &= m - 1;
  }
}

/// Per-warp event log. One lives per warp of the block currently being
/// simulated. Lanes execute sequentially between barriers, so the log
/// groups "the k-th access of each lane" into one warp request, finalizing
/// groups at epoch boundaries (barriers / block end) or when the bounded
/// window overflows.
class WarpLog {
public:
  static constexpr std::uint32_t kWarpSize = 32;
  /// Pending-group windows. Lanes execute sequentially within an epoch, so
  /// the table must hold one full lane's epoch of accesses; the scheduler
  /// calls flush_pending() when a warp's pass completes, so at most one
  /// warp's table is ever populated. These are safety valves sized above
  /// any per-lane epoch in the paper's workloads; a retired group hit by a
  /// late lane is counted as a fresh uncoalesced request.
  static constexpr std::size_t kGlobalWindow = 1 << 20;
  static constexpr std::size_t kSharedWindow = 1 << 16;

  /// Arm the log for a new block; `params` must outlive the block run.
  /// `prof` (optional) receives per-stage attribution of every event the
  /// log books — it must outlive the block run too.
  void reset(const CostParams& params, obs::StageTable* prof = nullptr);

  /// Set the stage subsequent events of `lane` are attributed to
  /// (thread_ctx.hpp's prof_scope). Ignored when profiling is off.
  void set_lane_stage(std::uint32_t lane, std::uint16_t stage) noexcept {
    lane_stage_[lane] = stage;
  }

  /// Record a global-memory access of `bytes` bytes at device virtual
  /// address `vaddr` by `lane`. Inline: lanes of a converged warp hit an
  /// already-open group (the common path) without leaving the header.
  void global_access(std::uint32_t lane, std::uint64_t vaddr,
                     std::uint32_t bytes) {
    dirty_ = true;
    const std::uint64_t k = gk_.at(lane)++;
    const std::uint64_t rel = k - gbase_;  // k < gbase_ wraps past gcount_
    if (rel < gcount_) [[likely]] {
      apply_global(gvec_[ghead_ + rel], lane, vaddr, bytes);
      return;
    }
    global_access_open(lane, k, vaddr, bytes);
  }

  /// Record a shared-memory access at byte offset `offset` by `lane`.
  void shared_access(std::uint32_t lane, std::uint32_t offset,
                     std::uint32_t bytes) {
    dirty_ = true;
    const std::uint64_t k = sk_.at(lane)++;
    if (prof_) mark_active(lane);
    const std::uint64_t rel = k - sbase_;
    if (rel < scount_) [[likely]] {
      SharedGroup& g = svec_[shead_ + rel];
      // Model each access by its first word; 8-byte types occupy two banks
      // on Kepler but the 4-byte-bank approximation keeps conflict shapes
      // intact.
      if (g.n < kWarpSize) g.word[g.n++] = offset / 4;
      return;
    }
    shared_access_open(lane, k, offset);
    (void)bytes;
  }

  /// Charge `units` of per-lane arithmetic work.
  void alu(std::uint32_t lane, double units) {
    dirty_ = true;
    alu_.at(lane) += units;
    if (prof_) {
      prof_->row(lane_stage_[lane]).alu_units += units;
      mark_active(lane);
    }
  }

  /// Fused forms of the access paths for the data-carrying instructions
  /// (thread_ctx.hpp): every ld/st/lds/sts charges exactly one ALU unit, so
  /// folding the charge in saves a second dirty/prof round per event. The
  /// net effect is bit-identical to access followed by alu(lane, 1).
  void global_access_alu1(std::uint32_t lane, std::uint64_t vaddr,
                          std::uint32_t bytes) {
    global_access(lane, vaddr, bytes);
    alu_.at(lane) += 1.0;
    if (prof_) prof_->row(lane_stage_[lane]).alu_units += 1.0;
  }
  void shared_access_alu1(std::uint32_t lane, std::uint32_t offset,
                          std::uint32_t bytes) {
    shared_access(lane, offset, bytes);
    alu_.at(lane) += 1.0;
    if (prof_) prof_->row(lane_stage_[lane]).alu_units += 1.0;
  }

  /// Warp-instruction forms (warp_ctx.hpp): book the lanes set in `mask`
  /// in ascending lane order, lane l at vaddr[l] / offset[l], exactly as
  /// the per-lane calls above would in that order. One call per warp
  /// instruction instead of one per lane: when every lane of the mask is
  /// at the same access ordinal, the instruction is one group lookup (the
  /// lowest lane opens or finds the group, as it would first in lane
  /// order); any other mask or a late ordinal books lane by lane. Only a
  /// width-32 warp context calls these, and the width rule never arms a
  /// profiler there (profiling runs at width 1), so they book no stage.
  void alu_lanes(LaneMask mask, double units) {
    assert(prof_ == nullptr && "warp-instruction forms book no stage");
    if (mask == 0) return;
    dirty_ = true;
    alu_.add(mask, units);
  }
  void global_access_alu1_lanes(LaneMask mask, const std::uint64_t* vaddr,
                                std::uint32_t bytes) {
    assert(prof_ == nullptr && "warp-instruction forms book no stage");
    if (mask == 0) return;
    if (GlobalGroup* g = next_global_group(mask)) {
      dirty_ = true;
      apply_global_lanes(*g, mask, vaddr, bytes);
      alu_.add(mask, 1.0);
      return;
    }
    for_each_lane(mask, [&](std::uint32_t l) {
      global_access_alu1(l, vaddr[l], bytes);
    });
  }
  /// Affine form of global_access_alu1_lanes for an instruction whose
  /// lanes are one contiguous run lo..hi, lane lo + n at vaddr0 + n·stride
  /// (modulo 2^64): it books exactly what the lane-vector form books for
  /// those addresses. With a stride of at most 128 bytes the run's lines
  /// have no gap, so when they fit the group's 64-line window the group
  /// takes them in one bitmap OR instead of a divide and a compare per
  /// lane; a wider stride or a run past the window marks lane by lane.
  void global_access_alu1_affine(LaneMask run, std::uint64_t vaddr0,
                                 std::uint64_t stride, std::uint32_t bytes) {
    if (run == 0) return;
    const auto lo = static_cast<std::uint32_t>(std::countr_zero(run));
    const auto n = static_cast<std::uint32_t>(std::popcount(run));
    assert(((run >> lo) & ((run >> lo) + 1)) == 0 && "lanes not contiguous");
    assert(prof_ == nullptr && "warp-instruction forms book no stage");
    if (GlobalGroup* g = next_global_group(run)) {
      dirty_ = true;
      g->bytes += bytes * n;
      anchor_global(*g, lo, vaddr0);
      if (stride > 128 ||
          !mark_line_run(*g, vaddr0, vaddr0 + (n - 1) * stride + bytes)) {
        for (std::uint32_t i = 0; i < n; ++i) {
          mark_lines(*g, vaddr0 + i * stride, bytes);
        }
      }
      alu_.add(run, 1.0);
      return;
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      global_access_alu1(lo + i, vaddr0 + i * stride, bytes);
    }
  }
  void shared_access_alu1_lanes(LaneMask mask, const std::uint32_t* offset,
                                std::uint32_t bytes) {
    assert(prof_ == nullptr && "warp-instruction forms book no stage");
    if (mask == 0) return;
    if (SharedGroup* g = next_shared_group(mask)) {
      dirty_ = true;
      for_each_lane(mask, [&](std::uint32_t l) {
        if (g->n < kWarpSize) g->word[g->n++] = offset[l] / 4;
      });
      alu_.add(mask, 1.0);
      return;
    }
    for_each_lane(mask, [&](std::uint32_t l) {
      shared_access_alu1(l, offset[l], bytes);
    });
  }

  /// Close the current epoch (barrier or end of block): finalize all pending
  /// groups, fold the epoch's lane-max ALU charge in, and return this
  /// epoch's cost for this warp. The scheduler combines warp epoch costs
  /// into a block epoch cost (max for latency-bound, sum/ILP for
  /// throughput-bound blocks).
  [[nodiscard]] double end_epoch();

  /// Finalize all pending groups without closing the epoch. The scheduler
  /// calls this when every lane of the warp has finished its pass (all at
  /// the block barrier or done), bounding pending-table memory to one
  /// warp's pass at a time.
  void flush_pending();

  // Raw tallies for LaunchStats.
  std::uint64_t gmem_requests = 0;
  std::uint64_t gmem_segments = 0;
  std::uint64_t gmem_bytes = 0;
  std::uint64_t smem_requests = 0;
  std::uint64_t smem_cycles = 0;
  double alu_total = 0;

private:
  /// Global access group: distinct 128B lines tracked with a 64-line bitmap
  /// anchored at the first line seen; lanes outside the bitmap span count as
  /// one segment each (exact for strides >= 128B). Tagged with the stage of
  /// the lane that opened the group (lanes of one warp move through scopes
  /// together, so the opener's stage is the group's stage).
  struct GlobalGroup {
    std::int64_t base_line = -1;
    std::uint64_t bitmap = 0;
    std::uint32_t overflow = 0;
    std::uint32_t bytes = 0;
    std::uint16_t stage = 0;
  };
  /// Shared access group: per-bank word sets, tracked exactly (<= 32 lanes).
  struct SharedGroup {
    std::array<std::uint32_t, kWarpSize> word{};  // word address per entry
    std::uint8_t n = 0;
    std::uint16_t stage = 0;
  };

  void finalize_global(const GlobalGroup& g);
  void finalize_shared(const SharedGroup& g);

  /// Fold one access into an open group (the common converged-lane path).
  void apply_global(GlobalGroup& g, std::uint32_t lane, std::uint64_t vaddr,
                    std::uint32_t bytes) {
    g.bytes += bytes;
    anchor_global(g, lane, vaddr);
    if (prof_) mark_active(lane);
    mark_lines(g, vaddr, bytes);
  }

  /// apply_global for each lane of `mask`, lane l at vaddr[l], in one pass.
  void apply_global_lanes(GlobalGroup& g, LaneMask mask,
                          const std::uint64_t* vaddr, std::uint32_t bytes) {
    const auto first = static_cast<std::uint32_t>(std::countr_zero(mask));
    g.bytes += bytes * static_cast<std::uint32_t>(std::popcount(mask));
    anchor_global(g, first, vaddr[first]);
    for_each_lane(mask,
                  [&](std::uint32_t l) { mark_lines(g, vaddr[l], bytes); });
  }

  /// The first access of a group anchors its 64-line bitmap window
  /// centered-ish on its line, so both forward and backward strides stay
  /// inside it, and tags the group with the opener's stage.
  void anchor_global(GlobalGroup& g, std::uint32_t lane,
                     std::uint64_t vaddr) const {
    if (g.base_line >= 0) return;
    g.base_line = std::max<std::int64_t>(
        0, static_cast<std::int64_t>(vaddr / 128) - 16);
    g.stage = lane_stage_[lane];
  }

  /// Mark the lines one access touches in the group's bitmap.
  static void mark_lines(GlobalGroup& g, std::uint64_t vaddr,
                         std::uint32_t bytes) {
    const std::int64_t rel =
        static_cast<std::int64_t>(vaddr / 128) - g.base_line;
    // A single access can straddle two lines (e.g. 8B at offset 124).
    const std::int64_t rel_end =
        static_cast<std::int64_t>((vaddr + bytes - 1) / 128) - g.base_line;
    if (rel == rel_end && static_cast<std::uint64_t>(rel) < 64) [[likely]] {
      g.bitmap |= 1ULL << rel;  // one line inside the window
      return;
    }
    for (std::int64_t r = rel; r <= rel_end; ++r) {
      if (r >= 0 && r < 64) {
        g.bitmap |= (1ULL << r);
      } else {
        g.overflow += 1;
      }
    }
  }

  /// Mark every line of the bytes [begin, end) in the group's bitmap and
  /// return true, or return false with nothing marked when they do not all
  /// fit its 64-line window (or the range wraps past 2^64).
  static bool mark_line_run(GlobalGroup& g, std::uint64_t begin,
                            std::uint64_t end) {
    const std::int64_t rel =
        static_cast<std::int64_t>(begin / 128) - g.base_line;
    const std::int64_t rel_end =
        static_cast<std::int64_t>((end - 1) / 128) - g.base_line;
    if (rel < 0 || rel_end >= 64 || rel_end < rel) return false;
    g.bitmap |= (~0ULL << rel) & (~0ULL >> (63 - rel_end));
    return true;
  }

  /// Out-of-line continuations of the access paths: open a new group, book
  /// a late access against a retired window, or retire the oldest group on
  /// window overflow.
  void global_access_open(std::uint32_t lane, std::uint64_t k,
                          std::uint64_t vaddr, std::uint32_t bytes);
  void shared_access_open(std::uint32_t lane, std::uint64_t k,
                          std::uint32_t offset);
  /// The pending group of ordinal `k` >= gbase_ / sbase_, opened (and the
  /// window advanced) if needed. The pointer lives until the next open.
  GlobalGroup& open_global(std::uint64_t k);
  SharedGroup& open_shared(std::uint64_t k);

  /// Whole-warp booking: when every lane of `mask` is at the same ordinal
  /// k and k is not late, advance those lanes past it and return group k,
  /// found or opened as the mask's lowest lane would; else return null
  /// with nothing advanced, and the caller books lane by lane.
  GlobalGroup* next_global_group(LaneMask mask);
  SharedGroup* next_shared_group(LaneMask mask);

  /// One value per lane (an access ordinal, the epoch's ALU charge), kept
  /// once while every lane holds the same value: from each epoch's start
  /// until a partial mask or a per-lane call books. A whole-warp
  /// instruction then updates one value, and end_epoch folds a warp whose
  /// lanes stayed aligned in O(1) instead of scanning and refilling the
  /// lane array.
  template <typename V>
  class LaneValues {
  public:
    /// Lane `l`'s value. The first per-lane access leaves the aligned
    /// form: it copies the common value into every lane.
    V& at(std::uint32_t l) {
      spread();
      return lane_[l];
    }
    /// Add `v` to the value of each lane of `mask`.
    void add(LaneMask mask, V v) {
      if (aligned_ && mask == kAllLanes) {
        all_ += v;
        return;
      }
      spread();
      for_each_lane(mask, [&](std::uint32_t l) { lane_[l] += v; });
    }
    /// True, with `v` set to it, when every lane of `mask` holds one value.
    bool common(LaneMask mask, V& v) const {
      if (aligned_) {
        v = all_;
        return true;
      }
      v = lane_[static_cast<std::size_t>(std::countr_zero(mask))];
      bool same = true;
      for_each_lane(mask, [&](std::uint32_t l) { same &= lane_[l] == v; });
      return same;
    }
    /// Set each lane of `mask` to `v`; a whole warp is aligned again.
    void set(LaneMask mask, V v) {
      if (mask == kAllLanes) {
        reset(v);
        return;
      }
      spread();
      for_each_lane(mask, [&](std::uint32_t l) { lane_[l] = v; });
    }
    /// The largest lane value.
    [[nodiscard]] V max() const {
      return aligned_ ? all_ : *std::max_element(lane_.begin(), lane_.end());
    }
    /// Every lane holds `v`.
    void reset(V v) {
      all_ = v;
      aligned_ = true;
    }

  private:
    void spread() {
      if (!aligned_) return;
      lane_.fill(all_);
      aligned_ = false;
    }
    std::array<V, kWarpSize> lane_{};  ///< per-lane values; stale if aligned_
    V all_{};                          ///< every lane's value when aligned_
    bool aligned_ = true;
  };

  /// Record lane activity in its current stage for this epoch's
  /// divergence histogram. Only called while profiling is armed.
  void mark_active(std::uint32_t lane);

  const CostParams* params_ = nullptr;
  obs::StageTable* prof_ = nullptr;
  double epoch_cost_ = 0;
  /// True once any event landed since the last end_epoch() — idle warps
  /// (parked at a barrier across many waves) skip the whole epoch fold.
  bool dirty_ = false;
  /// Pending-group storage: flat vectors indexed from a head offset, reused
  /// across epochs and blocks (capacity is never released). The head only
  /// moves on window overflow, where the oldest group retires early; a
  /// compaction keeps the vectors bounded by the window size.
  std::vector<GlobalGroup> gvec_;
  std::vector<SharedGroup> svec_;
  std::size_t ghead_ = 0;    ///< index of the oldest pending global group
  std::size_t gcount_ = 0;   ///< pending global groups
  std::size_t shead_ = 0;
  std::size_t scount_ = 0;
  std::uint64_t gbase_ = 0;  ///< group index of the oldest pending group
  std::uint64_t sbase_ = 0;
  LaneValues<std::uint64_t> gk_;  ///< next global access ordinal per lane
  LaneValues<std::uint64_t> sk_;  ///< next shared access ordinal per lane
  LaneValues<double> alu_;        ///< current-epoch ALU charge per lane
  std::array<std::uint16_t, kWarpSize> lane_stage_{};  ///< current stage per lane
  /// Current-epoch (stage, active-lane mask) pairs — a handful of entries
  /// (stages touched since the last barrier); folded into the stage
  /// occupancy histograms at end_epoch().
  std::vector<std::pair<std::uint16_t, std::uint32_t>> epoch_active_;
  /// finalize_shared scratch: per-bank distinct-word sets, generation-
  /// stamped so each group costs O(accesses) instead of O(accesses^2) and
  /// nothing is cleared between groups.
  std::uint64_t conflict_gen_ = 0;
  std::array<std::uint64_t, kWarpSize> bank_gen_{};
  std::array<std::uint8_t, kWarpSize> bank_cnt_{};
  std::array<std::array<std::uint32_t, kWarpSize>, kWarpSize> bank_words_{};
};

/// Computes the modeled kernel time from per-block costs.
///
/// Blocks are assigned to SMs round-robin in issue order; the launch is done
/// when the busiest SM drains, with a device-wide DRAM bandwidth floor.
[[nodiscard]] double estimate_device_time(
    const CostParams& p, const DeviceLimits& lim,
    const std::vector<double>& block_costs_ns, std::uint64_t gmem_bytes);

}  // namespace accred::gpusim
