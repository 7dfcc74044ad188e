// Per-block fiber scheduler: runs the threads of one simulated thread block
// in deterministic warp/lane order, implements syncthreads / syncwarp
// rendezvous, and folds the warp logs into block cost + launch statistics.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "gpusim/cost_model.hpp"
#include "gpusim/dim3.hpp"
#include "gpusim/error.hpp"
#include "gpusim/faultinject.hpp"
#include "gpusim/fiber.hpp"
#include "gpusim/pool.hpp"
#include "gpusim/racecheck.hpp"
#include "gpusim/thread_ctx.hpp"
#include "gpusim/warp_ctx.hpp"
#include "obs/profiler.hpp"

namespace accred::gpusim {

/// Device kernel: a callable executed once per simulated thread.
using KernelFn = std::function<void(ThreadCtx&)>;

/// Warp kernel (warp_ctx.hpp): a callable executed once per warp context,
/// at width 32 (one per warp) or width 1 (one per lane). launch() picks
/// the width; the kernel must give every lane the same events at both.
using WarpKernelFn = std::function<void(WarpCtx&)>;

/// Simulation knobs (distinct from the modeled device's CostParams).
struct SimOptions {
  bool strict_barriers = false;      ///< throw if threads exit while peers
                                     ///< wait at syncthreads (CUDA UB)
  /// Host worker threads simulating the blocks of one launch. 0 = process
  /// default (default_sim_threads() in pool.hpp); 1 = serial. Any value
  /// produces bit-identical LaunchStats and kernel results (DESIGN.md §7).
  std::uint32_t sim_threads = 0;
  /// Per-stage event attribution (obs/profiler.hpp). When true, every
  /// launch fills LaunchStats::profile from the kernel's prof_scope
  /// annotations. When off, the hot paths carry a single null-pointer
  /// branch.
  bool profile = false;
  /// Dynamic race detection (racecheck.hpp). When true, every shared and
  /// global access is shadow-tracked per barrier interval (global words
  /// per block: blocks are independent by the CUDA contract, so
  /// cross-block global races are out of scope), and conflicts surface in
  /// LaunchStats::race_reports instead of crashing. When off, like
  /// profiling, the hot paths carry a single null-pointer branch and the
  /// stats stay bit-identical.
  bool racecheck = false;
  /// Escalate racecheck conflicts to a LaunchError{kRace} after the stats
  /// merge (launch.cpp) instead of merely reporting them. Gives barrier
  /// mutations a structured, terminating failure without strict mode.
  bool error_on_race = false;
  /// Watchdog: per-block barrier-wave budget. A kernel whose threads keep
  /// rendezvousing forever (spin-on-flag deadlocks, runaway syncthreads
  /// loops) trips a LaunchError{kWatchdog} with the stuck warp's
  /// coordinates instead of hanging the host. 0 = kDefaultMaxSteps. Note
  /// the limit of the cooperative scheduler: a non-yielding infinite loop
  /// (no barrier, no instrumented access inside) cannot be preempted
  /// (DESIGN.md §11).
  std::uint64_t max_steps = 0;
  /// Fault-injection spec (faultinject.hpp grammar); "" arms nothing.
  /// launch() parses it once per launch.
  std::string faults{};
  /// Client cancellation token (pool.hpp). When set, launch() consumes one
  /// cancel_at_launch() tick at entry and refuses to start a cancelled
  /// launch, and every block checks the token at each barrier wave so a
  /// running launch terminates promptly with a structured
  /// LaunchError{kCancelled}. Shared: the client keeps one end, every shard
  /// reads the same atomic. Null = not cancellable (no overhead).
  std::shared_ptr<CancelToken> cancel_token = nullptr;
  /// Role name of this launch in the exported trace (obs/trace.hpp) —
  /// "vector_partial", "finalize_1block", ... Copied, so callers may pass
  /// transient strings; empty renders as "kernel". Has no effect on
  /// simulation or stats.
  std::string label;
};

/// Per-block outputs of one simulated block that must merge in flattened
/// block-id order (doubles — their fold order is part of the determinism
/// contract; the integer event totals merge commutatively via LaunchStats).
struct BlockRun {
  double cost_ns = 0;    ///< modeled block cost (estimate_device_time input)
  double alu_units = 0;  ///< warp-ordered ALU total of this block
  /// Per-stage attribution for this block (empty unless SimOptions::profile).
  /// Stage ids are interned per block in first-scope order — deterministic,
  /// since a block simulates on one host thread — and launch.cpp merges the
  /// tables by name in flattened block order.
  obs::StageTable profile;
  /// Racecheck results of this block (empty unless SimOptions::racecheck):
  /// the exact conflicting-pair count and the per-block capped reports,
  /// already resolved to thread coordinates and stage names. launch.cpp
  /// folds both in flattened block order (determinism contract).
  std::uint64_t races = 0;
  std::vector<RaceReport> race_reports;
  /// Injected faults that fired in this block (empty unless a fault plan
  /// was armed), in firing order; launch.cpp concatenates them in
  /// flattened block order under the same determinism contract.
  std::vector<FaultEvent> fault_events;
};

/// Default per-block barrier-wave budget: generous (the paper's full-scale
/// cases stay well under 10^5 waves per block) but finite, so a deadlock
/// surfaces in seconds instead of never.
inline constexpr std::uint64_t kDefaultMaxSteps = 4'000'000;

class BlockScheduler {
public:
  explicit BlockScheduler(SimOptions opts = {}) : opts_(opts) {}

  /// Simulate one thread block; returns the modeled block cost and ALU
  /// total and accumulates the integer event totals into `stats`
  /// (stats.alu_units is left untouched — the launch driver folds the
  /// returned per-block values in block order, see launch.cpp). When
  /// `cancel` is given, the block aborts with LaunchError{kCancelled} at
  /// the next barrier wave once a lower-numbered shard reported a fault.
  BlockRun run_block(const KernelFn& kernel, const CostParams& costs,
                     Dim3 block_idx, Dim3 block_dim, Dim3 grid_dim,
                     std::size_t shared_bytes, LaunchStats& stats,
                     const CancelFlag* cancel = nullptr,
                     std::uint32_t shard = 0) {
    return run_block(&kernel, nullptr, costs, block_idx, block_dim, grid_dim,
                     shared_bytes, stats, cancel, shard);
  }
  /// Same for a warp kernel. It runs at width 32, one fiber per warp, when
  /// blockDim.x is a multiple of 32 and neither profiling, racecheck nor a
  /// fault plan is armed; otherwise at width 1 on the lane engine, in the
  /// lane order those observers and straddling rows need (DESIGN.md §12).
  BlockRun run_block(const WarpKernelFn& kernel, const CostParams& costs,
                     Dim3 block_idx, Dim3 block_dim, Dim3 grid_dim,
                     std::size_t shared_bytes, LaunchStats& stats,
                     const CancelFlag* cancel = nullptr,
                     std::uint32_t shard = 0) {
    return run_block(nullptr, &kernel, costs, block_idx, block_dim, grid_dim,
                     shared_bytes, stats, cancel, shard);
  }

  [[nodiscard]] const SimOptions& options() const noexcept { return opts_; }
  /// Options for the next blocks, plus the fault plan launch() parsed from
  /// them (null when no fault is armed), armed per block. The plan is
  /// immutable and must outlive those blocks; launch() owns it for the
  /// whole launch.
  void set_options(SimOptions opts, const FaultPlan* faults) noexcept {
    opts_ = opts;
    fault_plan_ = faults;
  }

  /// Launch boundary for this scheduler's recycled per-block scratch: drops
  /// interned stage names (keeping capacity) so one kernel's prof_scope set
  /// never bleeds into the next launch's tables. Called by the launch
  /// driver once per shard before its first run_block.
  void begin_launch() { prof_table_.clear(); }

private:
  /// Exactly one of `kernel` and `warp_kernel` is set.
  BlockRun run_block(const KernelFn* kernel, const WarpKernelFn* warp_kernel,
                     const CostParams& costs, Dim3 block_idx, Dim3 block_dim,
                     Dim3 grid_dim, std::size_t shared_bytes,
                     LaunchStats& stats, const CancelFlag* cancel,
                     std::uint32_t shard);

  /// Run warp `w` until every lane is at a block barrier or done,
  /// releasing syncwarp rendezvous along the way.
  void advance_warp(std::uint32_t w, std::uint32_t nthreads);

  /// Width 32: one chained pass over the warps the last wave released
  /// (each runs until it parks at a block barrier or finishes).
  void advance_warps(std::uint32_t nwarps);

  /// Body for the chain (FastChain::LaneBody): runs unit `id` of the
  /// current kernel to completion on whatever fiber the chain lends it; the
  /// chain catches any exception at this boundary. A unit is a lane, or a
  /// warp when the block runs one fiber per warp. `arg` is the scheduler.
  static void run_thread(void* arg, std::uint32_t id);

  /// Width 32: run the warp kernel on warp `w` (its lane views are built on
  /// first use).
  void run_warp(std::uint32_t w);

  /// Rebuild thread_idx_ for a new block shape.
  void build_thread_idx(Dim3 block_dim);

  SimOptions opts_;
  const FaultPlan* fault_plan_ = nullptr;  ///< set_options(); owned by launch()
  BlockState block_;
  obs::StageTable prof_table_;  ///< per-block stage table when profiling
  RaceChecker racecheck_;       ///< per-block shadow state when racechecking
  BlockFaults faults_;          ///< per-block injector state when armed
  FiberStackPool stacks_;       ///< pooled lane stacks, recycled per block
  std::vector<std::unique_ptr<Fiber>> fibers_;  ///< one per pooled stack
  /// Pass driver (DESIGN.md §12): lends fibers_ to lanes, or to warps at
  /// width 32, on demand.
  FastChain chain_{&BlockScheduler::run_thread, this};
  std::vector<std::uint32_t> ready_;  ///< advance_warp(s) scratch: runnable
                                      ///< tids, or warps at width 32
  /// threadIdx of every linear tid of the last block shape run, so a lane
  /// is built from a table read instead of three divisions per 2-D lane.
  std::vector<Dim3> thread_idx_;
  Dim3 thread_idx_dim_{0, 0, 0};  ///< the shape thread_idx_ describes

  // Launch parameters of the block currently simulating, for run_thread.
  const KernelFn* cur_kernel_ = nullptr;
  const WarpKernelFn* cur_warp_kernel_ = nullptr;
  Dim3 cur_block_idx_{};
  Dim3 cur_block_dim_{};
  Dim3 cur_grid_dim_{};
};

/// Reusable per-OS-thread scheduler (fiber stacks are the expensive part).
/// The parallel launch path (pool.hpp) relies on exactly this per-thread
/// ownership: every pool worker simulates its blocks on its own scheduler,
/// so no block state is ever shared between host threads.
BlockScheduler& tls_scheduler();

}  // namespace accred::gpusim
