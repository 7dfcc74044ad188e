// Per-stage kernel profiler: the attribution layer behind `--profile`.
//
// LaunchStats answers *how much* a kernel cost; this subsystem answers
// *where*. Kernels name their phases with RAII scopes on the device surface
// (`auto s = ctx.prof_scope("tree");`), the cost model books every
// finalized warp event — global request groups, shared access groups, ALU
// charges, barrier and syncwarp rendezvous — into the stage that was
// active when the event was recorded, and the launch driver folds the
// per-block tables into one StageTable per launch (deterministically, in
// flattened block order, for any sim_threads — the PR-1 contract).
//
// The table also carries the warp-divergence metric the whole-launch
// stats cannot express: a per-warp-epoch active-lane occupancy histogram
// (how many of the 32 lanes did anything between two barriers), from
// which a per-stage divergence fraction is derived.
//
// Profiling is opt-in (SimOptions::profile / --profile);
// when off, the only residue on the hot paths is one null-pointer branch
// per logged event and an empty table in LaunchStats.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace accred::obs {

class Json;

/// Per-stage counter totals. Integer counters merge commutatively; the
/// double merges in deterministic fold order (block order — launch.cpp).
struct StageStats {
  static constexpr std::uint32_t kLanes = 32;

  std::uint64_t gmem_requests = 0;  ///< warp-level global access groups
  std::uint64_t gmem_segments = 0;  ///< 128B transactions after coalescing
  std::uint64_t gmem_bytes = 0;     ///< useful bytes moved
  std::uint64_t smem_requests = 0;  ///< warp-level shared access groups
  std::uint64_t smem_cycles = 0;    ///< groups weighted by conflict degree
  std::uint64_t barriers = 0;       ///< syncthreads waves booked here
  std::uint64_t syncwarps = 0;      ///< syncwarp rendezvous booked here
  std::uint64_t warp_epochs = 0;    ///< warp-epochs this stage was active in
  double alu_units = 0;             ///< lane-summed ALU charges (attribution
                                    ///< metric; the *cost* charge stays the
                                    ///< whole-launch warp-max in LaunchStats)
  /// Occupancy histogram: lane_hist[n] = warp-epochs in which exactly n of
  /// the warp's 32 lanes were active in this stage.
  std::array<std::uint64_t, kLanes + 1> lane_hist{};

  StageStats& operator+=(const StageStats& o);
};

/// Derived per-stage metrics (same definitions as the LaunchStats ones).
[[nodiscard]] double stage_coalescing_efficiency(const StageStats& s);
[[nodiscard]] double stage_bank_conflict_factor(const StageStats& s);
/// Mean fraction of *inactive* lanes over the stage's active warp-epochs:
/// 0 = every participating warp ran all 32 lanes, 0.5 = half the lanes
/// idled on average. 0 when the stage saw no epochs.
[[nodiscard]] double stage_divergence(const StageStats& s);

/// Events recorded outside any prof_scope land in this stage (id 0 once
/// anything interns — see StageTable).
inline constexpr const char* kUnscopedStageName = "(unscoped)";

/// Ordered stage-name -> StageStats table. Default construction allocates
/// nothing (LaunchStats embeds one, so the profiling-off path must stay
/// free); the scheduler arms it per block by interning kUnscopedStageName
/// first, pinning id 0. Iteration order is first-intern order, which is
/// deterministic per kernel; cross-block/-shard merging joins by *name*,
/// so even stage sets that differ per block fold consistently.
class StageTable {
 public:
  struct Row {
    std::string name;
    StageStats stats;
  };

  /// Get-or-create the stage named `name`; returns its id.
  std::uint16_t intern(std::string_view name);

  [[nodiscard]] StageStats& row(std::uint16_t id) { return rows_[id].stats; }
  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }
  [[nodiscard]] bool empty() const { return rows_.empty(); }

  /// Find a row by name (nullptr when absent).
  [[nodiscard]] const Row* find(std::string_view name) const;

  /// Fold `o` into this table, joining rows by name; o's unmatched stages
  /// append in their first-seen order.
  void merge(const StageTable& o);

  /// Zero every row's stats, keeping the interned names and their ids.
  /// The scheduler recycles its per-block table across the blocks of one
  /// launch (every block runs the same kernel, so the stage set stabilizes
  /// after the first block and arming becomes a stats wipe — DESIGN.md
  /// §12). Inherited zero-stat rows are invisible downstream: merging
  /// joins by name and serialization skips stages that booked nothing.
  void reset_stats();

  /// Drop all rows but keep the vector's capacity. Called at launch
  /// boundaries so stage names never leak between kernels.
  void clear() { rows_.clear(); }

 private:
  std::vector<Row> rows_;
};

/// Serialize a table as the schema-v2 "profile" section: an array of
/// per-stage objects (raw counters, derived metrics, lane histogram) in
/// table order, skipping stages that booked nothing.
[[nodiscard]] Json profile_to_json(const StageTable& table);

/// Parse a "profile" section back into a table (`accred_report prof`
/// reads it). Throws std::runtime_error on a malformed section.
[[nodiscard]] StageTable profile_from_json(const Json& j);

/// Render the nvprof-style per-stage table (`accred_report prof` and the
/// benches' `--profile` console output share this).
void print_profile(std::ostream& os, const StageTable& table);

}  // namespace accred::obs
