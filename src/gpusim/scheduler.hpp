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

namespace accred::gpusim {

/// Device kernel: a callable executed once per simulated thread.
using KernelFn = std::function<void(ThreadCtx&)>;

/// Simulation knobs (distinct from the modeled device's CostParams).
struct SimOptions {
  bool strict_barriers = false;      ///< throw if threads exit while peers
                                     ///< wait at syncthreads (CUDA UB)
  std::size_t stack_bytes = 64 * 1024;
  /// Host worker threads simulating the blocks of one launch. 0 = process
  /// default (ACCRED_SIM_THREADS env, else hardware_concurrency — see
  /// pool.hpp); 1 = serial. Any value produces bit-identical LaunchStats
  /// and kernel results (DESIGN.md §7).
  std::uint32_t sim_threads = 0;
  /// Per-stage event attribution (obs/profiler.hpp). When true — or when
  /// the ACCRED_PROFILE environment variable is truthy — every launch
  /// fills LaunchStats::profile from the kernel's prof_scope annotations.
  /// Off by default: the hot paths then carry a single null-pointer branch.
  bool profile = false;
  /// Dynamic race detection (racecheck.hpp). When true — or when the
  /// ACCRED_RACECHECK environment variable is truthy — every shared (and,
  /// with racecheck_global, global) access is shadow-tracked per barrier
  /// interval, and conflicts surface in LaunchStats::race_reports instead
  /// of crashing. Off by default: like profiling, the hot paths then carry
  /// a single null-pointer branch and the stats stay bit-identical.
  bool racecheck = false;
  /// Also shadow global-buffer words (per block; blocks are independent by
  /// the CUDA contract, so cross-block global races are out of scope).
  /// Only meaningful when racecheck is on.
  bool racecheck_global = true;
  /// Escalate racecheck conflicts to a LaunchError{kRace} after the stats
  /// merge (launch.cpp) instead of merely reporting them. Gives barrier
  /// mutations a structured, terminating failure without strict mode.
  bool error_on_race = false;
  /// Watchdog: per-block barrier-wave budget. A kernel whose threads keep
  /// rendezvousing forever (spin-on-flag deadlocks, runaway syncthreads
  /// loops) trips a LaunchError{kWatchdog} with the stuck warp's
  /// coordinates instead of hanging the host. 0 = default
  /// (ACCRED_MAX_STEPS env, else kDefaultMaxSteps). Note the limit of the
  /// cooperative scheduler: a non-yielding infinite loop (no barrier, no
  /// instrumented access inside) cannot be preempted (DESIGN.md §11).
  std::uint64_t max_steps = 0;
  /// Fault-injection spec (faultinject.hpp grammar); "" = the
  /// ACCRED_FAULTS env default. launch() parses it into fault_plan below —
  /// callers driving BlockScheduler directly must set fault_plan instead.
  std::string faults = {};
  /// The resolved plan the scheduler arms per block. Shared: SimOptions is
  /// copied per shard and the plan is immutable during a launch.
  std::shared_ptr<const FaultPlan> fault_plan = nullptr;
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
/// surfaces in seconds instead of never. ACCRED_MAX_STEPS overrides.
inline constexpr std::uint64_t kDefaultMaxSteps = 4'000'000;
[[nodiscard]] std::uint64_t default_max_steps();

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
                     std::uint32_t shard = 0);

  [[nodiscard]] const SimOptions& options() const noexcept { return opts_; }
  void set_options(SimOptions opts) noexcept { opts_ = opts; }

  /// Launch boundary for this scheduler's recycled per-block scratch: drops
  /// interned stage names (keeping capacity) so one kernel's prof_scope set
  /// never bleeds into the next launch's tables. Called by the launch
  /// driver once per shard before its first run_block.
  void begin_launch() { prof_table_.clear(); }

private:
  /// Run warp `w` until every lane is at a block barrier or done,
  /// releasing syncwarp rendezvous along the way.
  void advance_warp(std::uint32_t w, std::uint32_t nthreads);

  /// Fiber entry point for one simulated thread (Fiber::RawEntry): builds
  /// the ThreadCtx, runs the current kernel, catches at the kernel boundary
  /// and leave()s the pass — it never returns into the trampoline. Arming
  /// it stores two pointers per lane per block — no closure allocation.
  /// `arg` is a LaneArg.
  static void run_thread(void* arg);

  /// Per-lane argument for run_thread; stable for the duration of a block.
  struct LaneArg {
    BlockScheduler* sched;
    std::uint32_t tid;
  };

  SimOptions opts_;
  BlockState block_;
  obs::StageTable prof_table_;  ///< per-block stage table when profiling
  RaceChecker racecheck_;       ///< per-block shadow state when racechecking
  BlockFaults faults_;          ///< per-block injector state when armed
  FiberStackPool stacks_;       ///< pooled lane stacks, recycled per block
  FastChain chain_;             ///< warp pass driver (DESIGN.md §12)
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<Fiber*> fiber_raw_;     ///< fibers_[i].get(), chain_.run input
  std::vector<LaneArg> lane_args_;    ///< run_thread args, one per lane
  std::vector<std::uint32_t> ready_;  ///< advance_warp scratch: runnable tids

  // Launch parameters of the block currently simulating, for run_thread.
  const KernelFn* cur_kernel_ = nullptr;
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
