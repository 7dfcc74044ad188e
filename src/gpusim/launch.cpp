#include "gpusim/launch.hpp"

#include <chrono>
#include <exception>
#include <vector>

#include "gpusim/pool.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace accred::gpusim {

namespace {

/// Shard-private accumulator, cache-line padded so concurrent workers do
/// not false-share while counting events.
struct alignas(64) ShardState {
  LaunchStats stats;
  std::exception_ptr error;
};

/// The launch driver for either kernel form; BlockScheduler::run_block
/// picks the warp kernel's width per block.
template <typename Kernel>
LaunchStats launch_impl(Device& dev, Dim3 grid, Dim3 block,
                        std::size_t shared_bytes, const Kernel& kernel,
                        const SimOptions& opts) {
  validate_launch(grid, block, shared_bytes, dev.limits());

  // Client cancellation (pool.hpp CancelToken): consume one scheduled
  // cancel_at_launch() tick, then refuse to start a launch whose token is
  // already cancelled. Checked before the trace envelope opens so the
  // refusal leaves no unbalanced spans, and before any block simulates so
  // a pre-cancelled launch costs nothing.
  if (opts.cancel_token) {
    opts.cancel_token->on_launch_begin();
    if (opts.cancel_token->cancelled()) {
      LaunchErrorInfo info;
      info.code = LaunchErrorCode::kCancelled;
      info.message = "launch cancelled by client before start";
      throw LaunchError(std::move(info));
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t nblocks = grid.count();
  const std::uint32_t nshards = resolve_sim_threads(opts.sim_threads, nblocks);

  // Fault injection: parsed once so every shard scheduler arms the
  // identical immutable plan.
  FaultPlan fault_plan;
  if (!opts.faults.empty()) fault_plan = FaultPlan::parse(opts.faults);
  const bool faults_on = !fault_plan.empty();

  // Kernel begin/end span on virtual tid 0; shard spans and per-block
  // events land on tid 1+shard so the launch envelope stays balanced even
  // while shards overlap. All guarded by one relaxed load when disabled.
  const bool tracing = obs::trace_enabled();
  const char* trace_label = opts.label.empty() ? "kernel" : opts.label.c_str();
  if (tracing) {
    obs::trace_begin(trace_label, 0,
                     {{"blocks", static_cast<double>(nblocks)},
                      {"threads", static_cast<double>(block.count())},
                      {"shards", static_cast<double>(nshards)}});
  }

  // Per-block outputs indexed by flattened block id: every shard writes
  // disjoint slots, and the folds below walk them in issue order, so the
  // merged stats and the estimate_device_time() input are bit-identical to
  // a serial run no matter how the shards interleave.
  std::vector<double> block_costs(nblocks);
  std::vector<double> block_alu(nblocks);
  // Per-block stage tables, merged below in the same block-order fold as
  // block_alu — the per-stage doubles inherit the determinism contract.
  std::vector<obs::StageTable> block_profiles(opts.profile ? nblocks : 0);
  // Per-block race results, folded below in the same block-order walk so
  // the reports (and their cap cut-off) are identical for any sim_threads.
  std::vector<std::uint64_t> block_races(opts.racecheck ? nblocks : 0);
  std::vector<std::vector<RaceReport>> block_race_reports(
      opts.racecheck ? nblocks : 0);
  // Per-block fired-fault lists, concatenated in the same block-order walk.
  std::vector<std::vector<FaultEvent>> block_fault_events(
      faults_on ? nblocks : 0);
  std::vector<ShardState> shards(nshards);
  // First fatal shard stops the siblings above it promptly (pool.hpp);
  // shards below it keep running — one of them may still hold the
  // deterministic (lowest-block) error a serial sweep would surface first.
  CancelFlag cancel;

  // CUDA issue order: blockIdx.x fastest.
  const auto block_idx_of = [grid](std::uint64_t b) {
    return Dim3{static_cast<std::uint32_t>(b % grid.x),
                static_cast<std::uint32_t>((b / grid.x) % grid.y),
                static_cast<std::uint32_t>(
                    b / (static_cast<std::uint64_t>(grid.x) * grid.y))};
  };

  HostPool::instance().run(nshards, [&](std::uint32_t s) {
    // Contiguous shard of the flattened block range. Each OS thread runs
    // its blocks on its own scheduler (warm fiber stacks), in issue order.
    BlockScheduler& sched = tls_scheduler();
    sched.set_options(opts, faults_on ? &fault_plan : nullptr);
    sched.begin_launch();  // drop stage names interned by earlier launches
    ShardState& shard = shards[s];
    const std::uint64_t lo = nblocks * s / nshards;
    const std::uint64_t hi = nblocks * (s + 1) / nshards;
    const double shard_t0 = tracing ? obs::trace_now_us() : 0;
    try {
      for (std::uint64_t b = lo; b < hi; ++b) {
        if (cancel.cancelled_for(s)) break;  // a lower shard holds the error
        const std::uint64_t barriers_before = shard.stats.barriers;
        const double block_t0 = tracing ? obs::trace_now_us() : 0;
        BlockRun run =
            sched.run_block(kernel, dev.costs(), block_idx_of(b), block,
                            grid, shared_bytes, shard.stats, &cancel, s);
        block_costs[b] = run.cost_ns;
        block_alu[b] = run.alu_units;
        const std::size_t stages = run.profile.rows().size();
        if (opts.profile) block_profiles[b] = std::move(run.profile);
        if (opts.racecheck) {
          block_races[b] = run.races;
          block_race_reports[b] = std::move(run.race_reports);
        }
        if (faults_on) block_fault_events[b] = std::move(run.fault_events);
        if (tracing) {
          // One span per simulated block, annotated with its barrier waves
          // — the syncthreads rendezvous this block went through — and the
          // number of profiler stages it interned (0 when profiling off).
          obs::trace_complete(
              "block", s + 1, block_t0, obs::trace_now_us() - block_t0,
              {{"block", static_cast<double>(b)},
               {"barrier_waves",
                static_cast<double>(shard.stats.barriers - barriers_before)},
               {"stages", static_cast<double>(stages)},
               {"modeled_ms", run.cost_ns / 1e6}});
        }
      }
      if (tracing) {
        obs::trace_complete("shard", s + 1, shard_t0,
                            obs::trace_now_us() - shard_t0,
                            {{"shard", static_cast<double>(s)},
                             {"blocks", static_cast<double>(hi - lo)}});
      }
    } catch (const LaunchError& e) {
      // A device-side fault stops this shard at its first faulting block —
      // exactly where a serial sweep of the shard's range would stop — and
      // cancels the shards above it (their blocks come later in issue
      // order, so their errors would be suppressed serially anyway).
      // Sibling-shard kCancelled is bookkeeping, not an error: the shard
      // just obeyed a lower shard's cancellation, so it records nothing. A
      // *client* kCancelled (SimOptions::cancel_token fired mid-launch) is
      // a real terminal outcome: record it canonicalized, so the launch
      // fails with the identical error no matter which shard noticed first
      // or how far the others got.
      if (e.info().code != LaunchErrorCode::kCancelled) {
        shard.error = std::current_exception();
        cancel.cancel_from(s);
      } else if (opts.cancel_token && opts.cancel_token->cancelled()) {
        LaunchErrorInfo info;
        info.code = LaunchErrorCode::kCancelled;
        info.message = "launch cancelled by client";
        shard.error = std::make_exception_ptr(LaunchError(std::move(info)));
        cancel.cancel_from(s);
      }
    } catch (...) {
      shard.error = std::current_exception();
      cancel.cancel_from(s);
    }
  });

  // Deterministic fault propagation: shards are contiguous and are only
  // ever cancelled from *below*, so the lowest faulting shard always ran
  // far enough to hold the fault with the lowest block id any sweep could
  // encounter — the same exception the serial loop surfaces, no matter how
  // the shards interleaved or which of them were cancelled.
  for (const ShardState& shard : shards) {
    if (shard.error) {
      if (tracing) obs::trace_end(0);  // close the kernel span (balance)
      std::rethrow_exception(shard.error);
    }
  }

  LaunchStats stats;
  for (const ShardState& shard : shards) stats += shard.stats;  // integers
  for (std::uint64_t b = 0; b < nblocks; ++b) {
    stats.alu_units += block_alu[b];  // doubles: fold in block order
  }
  if (opts.profile) {
    // Stage tables join by name in the same flattened-block order, so the
    // per-stage totals (including their alu doubles) are bit-identical for
    // any sim_threads.
    for (std::uint64_t b = 0; b < nblocks; ++b) {
      stats.profile.merge(block_profiles[b]);
    }
  }
  stats.racecheck = opts.racecheck;
  if (opts.racecheck) {
    // Reports concatenate in flattened block order, so the launch-level cap
    // cuts at the same report for any sim_threads.
    for (std::uint64_t b = 0; b < nblocks; ++b) {
      stats.races += block_races[b];
      for (RaceReport& r : block_race_reports[b]) {
        if (stats.race_reports.size() >= RaceChecker::kMaxReportsPerLaunch) {
          break;
        }
        stats.race_reports.push_back(std::move(r));
      }
    }
  }
  stats.faults_armed = faults_on;
  if (faults_on) {
    // Fired faults concatenate in flattened block order too — the same
    // events, in the same order, for any sim_threads.
    for (std::uint64_t b = 0; b < nblocks; ++b) {
      for (FaultEvent& e : block_fault_events[b]) {
        if (stats.fault_events.size() >= BlockFaults::kMaxEventsPerLaunch) {
          break;
        }
        stats.fault_events.push_back(std::move(e));
      }
    }
  }
  // Escalate detected races to a structured, terminating error when asked:
  // this is what gives uniformly-deleted barriers (no divergence, no hang —
  // just a data race) a LaunchError without strict mode. The first report
  // in block order names the site; the count is exact.
  if (opts.racecheck && opts.error_on_race && stats.races > 0) {
    LaunchErrorInfo info;
    info.code = LaunchErrorCode::kRace;
    info.message = std::to_string(stats.races) + " racecheck conflict" +
                   (stats.races == 1 ? "" : "s") + " detected";
    if (!stats.race_reports.empty()) {
      const RaceReport& r = stats.race_reports.front();
      info.message += " (first: " + to_string(r) + ")";
      info.stage = r.second.stage;
      info.block = r.block;
      const std::uint32_t linear =
          r.second.thread.x + r.second.thread.y * block.x +
          r.second.thread.z * block.x * block.y;
      info.warp = linear / 32;
      info.has_site = true;
    }
    // The merged stats die with this throw; hand the fired-fault list to
    // the error so recovery harnesses keep their campaign accounting (an
    // injected skip_barrier whose only symptom is this race would
    // otherwise vanish from the record).
    info.fired = std::move(stats.fault_events);
    if (tracing) obs::trace_end(0);  // close the kernel span (balance)
    throw LaunchError(std::move(info));
  }
  stats.device_time_ns = estimate_device_time(dev.costs(), dev.limits(),
                                              block_costs, stats.gmem_bytes);
  const auto t1 = std::chrono::steady_clock::now();
  stats.wall_time_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  if (tracing) {
    obs::trace_counter("modeled_device_ms", stats.device_time_ns / 1e6);
    obs::trace_counter("barrier_waves", static_cast<double>(stats.barriers));
    obs::trace_end(0);
  }
  return stats;
}

}  // namespace

LaunchStats launch(Device& dev, Dim3 grid, Dim3 block,
                   std::size_t shared_bytes, const KernelFn& kernel,
                   const SimOptions& opts) {
  return launch_impl(dev, grid, block, shared_bytes, kernel, opts);
}

LaunchStats launch(Device& dev, Dim3 grid, Dim3 block,
                   std::size_t shared_bytes, const WarpKernelFn& kernel,
                   const SimOptions& opts) {
  return launch_impl(dev, grid, block, shared_bytes, kernel, opts);
}

}  // namespace accred::gpusim
