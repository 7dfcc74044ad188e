#include "gpusim/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace accred::gpusim {

namespace {

constexpr std::size_t kLaneStackBytes = 64 * 1024;

}  // namespace

void BlockScheduler::build_thread_idx(Dim3 block_dim) {
  // Linear tid order is x fastest, then y, then z: three nested loops
  // produce the table without a single division.
  thread_idx_.clear();
  thread_idx_.reserve(block_dim.count());
  for (std::uint32_t z = 0; z < block_dim.z; ++z) {
    for (std::uint32_t y = 0; y < block_dim.y; ++y) {
      for (std::uint32_t x = 0; x < block_dim.x; ++x) {
        thread_idx_.push_back(Dim3{x, y, z});
      }
    }
  }
  thread_idx_dim_ = block_dim;
}

void BlockScheduler::run_thread(void* arg, std::uint32_t id) {
  BlockScheduler& s = *static_cast<BlockScheduler*>(arg);
  if (s.block_.warp_fibers) {
    s.run_warp(id);
    return;
  }
  ThreadCtx ctx(s.block_, s.thread_idx_[id], s.cur_block_idx_,
                s.cur_block_dim_, s.cur_grid_dim_);
  if (s.cur_warp_kernel_ != nullptr) {
    WarpCtx wc(ctx);  // width 1: the warp kernel runs as this lane
    (*s.cur_warp_kernel_)(wc);
  } else {
    (*s.cur_kernel_)(ctx);
  }
  s.block_.phase[id] = ThreadPhase::kDone;
}

void BlockScheduler::run_warp(std::uint32_t w) {
  const std::uint32_t first = w * WarpLog::kWarpSize;
  // Width 32 implies whole-warp rows, so every warp is full. The lane views
  // are built on first use in slots on the warp's own fiber stack; ThreadCtx
  // is trivially destructible, so an abandoned fiber leaks nothing.
  LaneViewSlots views;
  WarpCtx wc(block_, thread_idx_[first], cur_block_idx_, cur_block_dim_,
             cur_grid_dim_, views);
  (*cur_warp_kernel_)(wc);
  block_.warp_logs[w].flush_pending();
  std::fill_n(block_.phase.begin() + first, WarpLog::kWarpSize,
              ThreadPhase::kDone);
}

void BlockScheduler::advance_warps(std::uint32_t nwarps) {
  // Every lane of a warp shares its phase at width 32, so the warp's first
  // lane speaks for it.
  ready_.clear();
  for (std::uint32_t w = 0; w < nwarps; ++w) {
    if (block_.phase[w * WarpLog::kWarpSize] == ThreadPhase::kReady) {
      ready_.push_back(w);
    }
  }
  if (!ready_.empty()) {
    chain_.run(ready_.data(), static_cast<std::uint32_t>(ready_.size()));
  }
}

void BlockScheduler::advance_warp(std::uint32_t w, std::uint32_t nthreads) {
  const std::uint32_t first = w * 32;
  const std::uint32_t last = std::min(first + 32, nthreads);
  // One scan seeds the pass with the lanes the block barrier released;
  // afterwards the syncwarp arrival list is the ready set verbatim, so each
  // inner pass costs O(lanes resumed) instead of three 32-lane scans.
  ready_.clear();
  for (std::uint32_t t = first; t < last; ++t) {
    if (block_.phase[t] == ThreadPhase::kReady) ready_.push_back(t);
  }
  std::vector<std::uint32_t>& arrived = block_.warp_pending[w];
  for (;;) {
    if (!ready_.empty()) {
      // One chained pass, lanes entered in list order: a single context
      // switch per suspension, none between lanes that run to completion.
      chain_.run(ready_.data(), static_cast<std::uint32_t>(ready_.size()));
    }
    // Every resumed lane is now parked at syncwarp (listed in `arrived`),
    // at the block barrier, or done.
    if (arrived.empty()) {
      // The warp's pass is over; retire its access groups to bound log
      // memory. Lanes at the block barrier (or exited) counted as arrived
      // at any syncwarp rendezvous released along the way.
      block_.warp_logs[w].flush_pending();
      return;
    }
    // Release the warp rendezvous: exactly the arrived lanes resume.
    block_.syncwarps += 1;
    // Racecheck: a syncwarp orders this warp's accesses across the
    // rendezvous — but only this warp's (racecheck.hpp).
    if (block_.racecheck != nullptr) block_.racecheck->on_syncwarp(w);
    // Attribute the rendezvous to the stage of the first-arrived lane (the
    // lanes of one warp move through scopes together).
    if (block_.profile != nullptr) {
      block_.profile->row(block_.thread_stage[arrived.front()]).syncwarps += 1;
    }
    for (std::uint32_t t : arrived) block_.phase[t] = ThreadPhase::kReady;
    ready_.swap(arrived);
    arrived.clear();
  }
}

BlockRun BlockScheduler::run_block(const KernelFn* kernel,
                                   const WarpKernelFn* warp_kernel,
                                   const CostParams& costs, Dim3 block_idx,
                                   Dim3 block_dim, Dim3 grid_dim,
                                   std::size_t shared_bytes,
                                   LaunchStats& stats,
                                   const CancelFlag* cancel,
                                   std::uint32_t shard) {
  const auto nthreads = static_cast<std::uint32_t>(block_dim.count());
  const std::uint32_t nwarps = (nthreads + 31) / 32;
  const bool faults_on = fault_plan_ != nullptr;
  // The width rule (DESIGN.md §12): a warp kernel runs one fiber per warp
  // when its rows are whole warps (blockDim.x a multiple of 32, so a warp's
  // lanes share threadIdx.y and diverge only by lane prefix) and no
  // observer that sees events in lane order is armed.
  const bool warp_fibers = warp_kernel != nullptr &&
                           block_dim.x % WarpLog::kWarpSize == 0 &&
                           !opts_.profile && !opts_.racecheck && !faults_on;

  // Arm per-stage attribution before any fiber runs; id 0 is pinned to the
  // unscoped stage so un-annotated kernels still profile cleanly. Racecheck
  // and fault injection arm the table too — race reports, fault events and
  // structured errors attribute to prof_scope stages — but the table is
  // only *returned* when profiling was requested, so stats output is
  // unchanged.
  obs::StageTable* prof = nullptr;
  if (opts_.profile || opts_.racecheck || faults_on) {
    // Recycled scratch: after the first block the kernel's stage set is
    // already interned, so arming degrades to zeroing a few rows. The
    // launch driver calls begin_launch() per shard so names never leak
    // across kernels (DESIGN.md §12).
    prof_table_.reset_stats();
    prof_table_.intern(obs::kUnscopedStageName);
    prof = &prof_table_;
    block_.thread_stage.assign(nthreads, 0);
  }
  block_.profile = prof;
  if (opts_.racecheck) {
    racecheck_.reset(shared_bytes, nwarps, block_idx, block_dim);
    block_.racecheck = &racecheck_;
  } else {
    block_.racecheck = nullptr;
  }
  if (faults_on) {
    const std::uint64_t flat_block =
        block_idx.x +
        static_cast<std::uint64_t>(grid_dim.x) *
            (block_idx.y + static_cast<std::uint64_t>(grid_dim.y) *
                               block_idx.z);
    faults_.reset(fault_plan_, flat_block, block_idx, prof);
    block_.faults = faults_.armed() ? &faults_ : nullptr;
  } else {
    block_.faults = nullptr;
  }

  block_.shared.assign(shared_bytes, std::byte{0});
  block_.warp_logs.resize(std::max<std::size_t>(block_.warp_logs.size(), nwarps));
  for (std::uint32_t w = 0; w < nwarps; ++w) {
    block_.warp_logs[w].reset(costs, prof);
  }
  block_.warp_pending.resize(
      std::max<std::size_t>(block_.warp_pending.size(), nwarps));
  // Clear stale arrival lists (a prior block may have faulted mid-pass).
  for (std::uint32_t w = 0; w < nwarps; ++w) block_.warp_pending[w].clear();
  block_.phase.assign(nthreads, ThreadPhase::kReady);
  block_.barrier_seq.assign(nthreads, 0);
  block_.barriers = 0;
  block_.syncwarps = 0;
  block_.barrier_exit_divergence = false;
  block_.barrier_site_mismatch = false;
  block_.strict_barriers = opts_.strict_barriers;
  block_.warp_fibers = warp_fibers;
  block_.chain = &chain_;

  // Lane stacks come from the pooled slab, one pooled fiber each. The chain
  // lends a fiber to a lane only when a pass first enters it, so arming a
  // block touches no fiber. A reallocating ensure() (first block, or a
  // larger shape/stack request) rebuilds the pool over the new slab; if a
  // rebuild throws, the next block finishes it before any lane runs.
  if (stacks_.ensure(warp_fibers ? nwarps : nthreads, kLaneStackBytes)) {
    fibers_.clear();
  }
  if (fibers_.size() < stacks_.count()) {
    while (fibers_.size() < stacks_.count()) {
      fibers_.push_back(std::make_unique<Fiber>(stacks_.stack(fibers_.size()),
                                                stacks_.stack_bytes()));
    }
    chain_.reset(fibers_);
  }

  if (!(block_dim == thread_idx_dim_)) build_thread_idx(block_dim);
  cur_kernel_ = kernel;
  cur_warp_kernel_ = warp_kernel;
  cur_block_idx_ = block_idx;
  cur_block_dim_ = block_dim;
  cur_grid_dim_ = grid_dim;

  // Structured-error site: coordinates + stage of the implicated thread.
  const auto site_info = [&](LaunchErrorCode code, std::string message,
                             std::uint32_t tid, std::uint64_t step) {
    LaunchErrorInfo info;
    info.code = code;
    info.message = std::move(message);
    if (prof != nullptr && tid < block_.thread_stage.size()) {
      const std::uint16_t sid = block_.thread_stage[tid];
      if (sid < prof->rows().size()) info.stage = prof->rows()[sid].name;
    }
    info.block = block_idx;
    info.warp = tid / 32;
    info.barrier_seq =
        tid < block_.barrier_seq.size() ? block_.barrier_seq[tid] : 0;
    info.step = step;
    info.has_site = true;
    return info;
  };
  const std::uint64_t max_steps =
      opts_.max_steps != 0 ? opts_.max_steps : kDefaultMaxSteps;
  std::uint64_t steps = 0;
  double block_cost = 0;
  try {
    for (;;) {
      if (cancel != nullptr && cancel->cancelled_for(shard)) {
        LaunchErrorInfo info;
        info.code = LaunchErrorCode::kCancelled;
        info.message =
            "shard " + std::to_string(shard) +
            " stopped: a lower shard already holds the launch error";
        throw LaunchError(std::move(info));
      }
      if (opts_.cancel_token && opts_.cancel_token->cancelled()) {
        // Client cancellation: every shard observes the same token, so all
        // blocks stop at their next wave. launch.cpp canonicalizes this
        // into the launch's terminal error (unlike the sibling-shard
        // kCancelled above, which it swallows as bookkeeping).
        LaunchErrorInfo info;
        info.code = LaunchErrorCode::kCancelled;
        info.message = "launch cancelled by client token";
        throw LaunchError(std::move(info));
      }
      if (warp_fibers) {
        advance_warps(nwarps);
      } else {
        for (std::uint32_t w = 0; w < nwarps; ++w) advance_warp(w, nthreads);
      }

      // Epoch boundary: fold warp costs into the block cost. Few-warp
      // blocks are latency-bound (max); many-warp blocks are bound by the
      // SM's issue throughput (sum over the quad scheduler).
      double mx = 0;
      double sum = 0;
      for (std::uint32_t w = 0; w < nwarps; ++w) {
        const double c = block_.warp_logs[w].end_epoch();
        mx = std::max(mx, c);
        sum += c;
      }
      block_cost += std::max(mx, sum / costs.warp_ilp);

      // One fused pass over the block: classify lanes, find the first
      // waiter and the first barrier-ordinal mismatch, and release the
      // waiters for the next wave. Releasing before the divergence checks
      // below is unobservable — on every throw path the block dies and
      // phases are reassigned at the next run_block — and at wave end every
      // lane is either done or parked at the block barrier, so the first
      // non-done lane is exactly the first waiter the scans used to find.
      // With one fiber per warp, a warp's lanes share phase and barrier
      // ordinal, so the scan visits one lane per warp: O(warps) per wave.
      bool any_done = false;
      bool any_waiting = false;
      std::uint32_t first_wait = nthreads;
      std::uint32_t mismatch_tid = nthreads;
      std::uint32_t seq = 0;
      const std::uint32_t scan_step = warp_fibers ? WarpLog::kWarpSize : 1;
      for (std::uint32_t t = 0; t < nthreads; t += scan_step) {
        if (block_.phase[t] == ThreadPhase::kDone) {
          any_done = true;
          continue;
        }
        any_waiting = true;  // suspended at syncthreads
        if (first_wait == nthreads) {
          first_wait = t;
          seq = block_.barrier_seq[t];
        } else if (mismatch_tid == nthreads && block_.barrier_seq[t] != seq) {
          mismatch_tid = t;
        }
        block_.phase[t] = ThreadPhase::kReady;
        if (warp_fibers) {  // the warp's other lanes wait with it
          std::fill(block_.phase.begin() + t + 1,
                    block_.phase.begin() + std::min(t + scan_step, nthreads),
                    ThreadPhase::kReady);
        }
      }
      if (!any_waiting) break;  // kernel complete

      // Watchdog: a finite barrier-wave budget turns spin-on-flag
      // deadlocks and runaway syncthreads loops into a structured error
      // naming the stuck warp instead of hanging the host.
      steps += 1;
      if (steps > max_steps) {
        throw LaunchError(site_info(
            LaunchErrorCode::kWatchdog,
            "barrier-wave budget exhausted (max_steps=" +
                std::to_string(max_steps) +
                "): barrier deadlock or runaway loop",
            first_wait, steps));
      }

      if (any_done) {
        // Some threads exited while others wait at syncthreads: undefined
        // behaviour in CUDA. Model hardware leniency (exited threads count
        // as arrived) but record it; throw in strict mode.
        block_.barrier_exit_divergence = true;
        if (block_.strict_barriers) {
          throw LaunchError(site_info(
              LaunchErrorCode::kBarrierDivergence,
              "syncthreads divergence: threads exited while peers wait at "
              "a block barrier",
              first_wait, steps));
        }
      }
      // Threads rendezvousing with unequal per-thread barrier counts have
      // met at *different* syncthreads call sites — also CUDA UB (the
      // classic barrier-in-divergent-loop bug).
      if (mismatch_tid != nthreads) {
        block_.barrier_site_mismatch = true;
        if (block_.strict_barriers) {
          throw LaunchError(site_info(
              LaunchErrorCode::kBarrierDivergence,
              "syncthreads divergence: threads rendezvoused at different "
              "barrier instances (barrier inside a divergent loop?)",
              mismatch_tid, steps));
        }
      }
      block_.barriers += 1;
      // Racecheck: the barrier wave orders every earlier access before
      // everything the released threads do next.
      if (block_.racecheck != nullptr) block_.racecheck->on_syncthreads();
      // Attribute the wave to the stage of the first thread found waiting —
      // all waiters rendezvoused at the same call site (checked above), so
      // any waiter's stage names the barrier.
      if (block_.profile != nullptr) {
        block_.profile->row(block_.thread_stage[first_wait]).barriers += 1;
      }
      block_cost += costs.barrier_ns;
    }
  } catch (const LaunchError& e) {
    // A device-side fault (OOB access, strict-barrier violation, user
    // exception) leaves lanes suspended mid-kernel, each holding a fiber.
    // Abandon them and refill the free list before the next block: their
    // frame-local objects are not destroyed (they are trivial device-side
    // values by construction).
    chain_.reset(fibers_);
    // This block's BlockRun dies with the throw, so injected faults that
    // already fired here (including a warp_abort's own event) ride on the
    // error — recovery harnesses keep their campaign accounting.
    if (block_.faults != nullptr) {
      block_.faults = nullptr;
      LaunchErrorInfo info = e.info();
      for (FaultEvent& ev : faults_.take_events()) {
        if (info.fired.size() >= BlockFaults::kMaxEventsPerBlock) break;
        info.fired.push_back(std::move(ev));
      }
      throw LaunchError(std::move(info));
    }
    throw;
  } catch (...) {
    chain_.reset(fibers_);
    throw;
  }

  stats.blocks += 1;
  stats.threads += nthreads;
  stats.barriers += block_.barriers;
  stats.syncwarps += block_.syncwarps;
  stats.barrier_exit_divergence += block_.barrier_exit_divergence ? 1 : 0;
  stats.barrier_site_mismatch += block_.barrier_site_mismatch ? 1 : 0;
  BlockRun run;
  run.cost_ns = block_cost;
  for (std::uint32_t w = 0; w < nwarps; ++w) {
    const WarpLog& log = block_.warp_logs[w];
    stats.gmem_requests += log.gmem_requests;
    stats.gmem_segments += log.gmem_segments;
    stats.gmem_bytes += log.gmem_bytes;
    stats.smem_requests += log.smem_requests;
    stats.smem_cycles += log.smem_cycles;
    run.alu_units += log.alu_total;  // warp order, per block — merged in
                                     // block order by the launch driver
  }
  if (opts_.racecheck) {
    run.races = racecheck_.races();
    run.race_reports = racecheck_.take_reports(prof);
    block_.racecheck = nullptr;
  }
  if (block_.faults != nullptr) {
    run.fault_events = faults_.take_events();
    block_.faults = nullptr;
  }
  // Copy, not move: prof_table_ is the recycled per-block scratch — the
  // next block of this launch re-arms it with reset_stats(). Inherited
  // zero-stat rows in the copy merge away by name in the launch driver.
  if (opts_.profile) run.profile = prof_table_;
  block_.profile = nullptr;
  return run;
}

BlockScheduler& tls_scheduler() {
  thread_local BlockScheduler sched;
  return sched;
}

}  // namespace accred::gpusim
