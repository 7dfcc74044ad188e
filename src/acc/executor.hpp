// Executes an ExecutionPlan on the simulated device by dispatching to the
// strategy kernels of src/reduce/. This is the "run the generated kernel"
// stage; codegen/cuda_emitter.hpp is its source-text twin.
//
// execute() is the bare dispatch: any device-side failure (watchdog trip,
// injected fault, OOM) escapes as gpusim::LaunchError. execute_guarded()
// wraps any attempt — a plan's execute(), or an extended kind's launch — in
// the graceful-degradation policy of DESIGN.md §11: re-run a failed
// attempt up to GuardPolicy::max_retries times, then walk a degradation
// ladder — all-barriers tree first, then progressively smaller launch
// geometry — until the run succeeds or the ladder is exhausted.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "acc/guard.hpp"
#include "acc/planner.hpp"
#include "gpusim/device.hpp"
#include "gpusim/error.hpp"
#include "gpusim/faultinject.hpp"
#include "obs/trace.hpp"
#include "reduce/fused_cascade.hpp"
#include "reduce/gang_reduce.hpp"
#include "reduce/rmp_reduce.hpp"
#include "reduce/vector_reduce.hpp"
#include "reduce/worker_reduce.hpp"

namespace accred::acc {

/// Run `plan` with the given loop-body bindings. T must match plan.type.
template <typename T>
reduce::ReduceResult<T> execute(gpusim::Device& dev, const ExecutionPlan& plan,
                                const reduce::Bindings<T>& b) {
  if (data_type_of<T>() != plan.type) {
    throw std::invalid_argument(
        "execute<T>: T does not match the planned operand type");
  }
  switch (plan.kind) {
    case StrategyKind::kVector:
      return reduce::run_vector_reduction<T>(dev, plan.dims, plan.launch,
                                             plan.op, b, plan.strategy);
    case StrategyKind::kWorker:
      return reduce::run_worker_reduction<T>(dev, plan.dims, plan.launch,
                                             plan.op, b, plan.strategy);
    case StrategyKind::kGang:
      return reduce::run_gang_reduction<T>(dev, plan.dims, plan.launch,
                                           plan.op, b, plan.strategy);
    case StrategyKind::kWorkerVector:
      return reduce::run_worker_vector_reduction<T>(
          dev, plan.dims, plan.launch, plan.op, b, plan.strategy);
    case StrategyKind::kGangWorker:
      return reduce::run_gang_worker_reduction<T>(
          dev, plan.dims, plan.launch, plan.op, b, plan.strategy);
    case StrategyKind::kGangWorkerVector:
      return reduce::run_gang_worker_vector_reduction<T>(
          dev, plan.dims, plan.launch, plan.op, b, plan.strategy);
    case StrategyKind::kSameLoop:
      return reduce::run_same_loop_reduction<T>(dev, plan.same_loop_extent,
                                                plan.launch, plan.op, b,
                                                plan.strategy);
    case StrategyKind::kFusedCascade: {
      // The generic Bindings only carry a scalar observable, so this
      // dispatch covers gang-terminated chains (which return one); chains
      // ending below the gang level need run_fused_chain with explicit
      // per-stage sinks.
      if (plan.chain.empty() || plan.chain.back().level != Par::kGang) {
        throw std::invalid_argument(
            "execute<T>: fused chains not ending at the gang level need "
            "run_fused_chain with per-stage sinks");
      }
      reduce::FusedChainBindings<T> fb;
      fb.contrib = b.contrib;
      fb.parallel_work = b.parallel_work;
      if (plan.chain.front().level == Par::kVector) {
        fb.vector_init = b.instance_init;
      } else {
        fb.worker_init = b.instance_init;
      }
      fb.host_init = b.host_init;
      fb.host_init_set = b.host_init_set;
      return reduce::run_fused_chain<T>(dev, plan.chain, plan.dims,
                                        plan.launch, fb, plan.strategy);
    }
  }
  throw std::logic_error("unreachable strategy kind");
}

/// One failed attempt and what the executor did about it.
struct DegradeEvent {
  int attempt = 0;  ///< 1-based attempt that failed
  int rung = 0;     ///< ladder rung the attempt ran on (0 = as planned)
  int failure_on_rung = 0;  ///< 1-based failure ordinal within that rung
  gpusim::LaunchErrorCode code = gpusim::LaunchErrorCode::kNone;
  std::string reason;  ///< rendered error / guard diagnostic
  std::string action;  ///< "retry", "strip non-sticky faults", rung change…
};

/// Outcome of a guarded execution. `ok == false` means every rung of the
/// ladder failed; `error` then holds the last failure (the events list has
/// the full history either way). R is what one attempt returns: a
/// reduce::ReduceResult for a plan, or an extended kind's result.
template <typename R>
struct GuardedResult {
  bool ok = false;
  R result{};  ///< of the successful attempt
  /// The launch geometry and strategy config that finally ran.
  LaunchConfig launch{};
  reduce::StrategyConfig strategy{};
  int attempts = 0;
  bool recovered = false;  ///< succeeded after at least one failure
  bool degraded = false;   ///< succeeded on a degraded rung
  std::vector<DegradeEvent> events;
  gpusim::LaunchErrorInfo error{};  ///< terminal failure when !ok
  /// Fault bookkeeping aggregated over every attempt: completed launches
  /// contribute their LaunchStats::fault_events; failed attempts
  /// contribute the events their LaunchError carried (the launch's stats
  /// are lost with the exception), or one synthesized event for injected
  /// errors that recorded none (device-side alloc_fail).
  bool faults_armed = false;
  std::vector<gpusim::FaultEvent> fault_events;
};

/// The numeric guard every result with a `scalar` passes before its
/// verifier: a non-finite scalar is never a valid reduction result.
template <typename R>
bool finite_scalar(const R& res, std::string& detail) {
  if constexpr (requires { *res.scalar; }) {
    if (res.scalar && !std::isfinite(static_cast<double>(*res.scalar))) {
      detail = "non-finite scalar result";
      return false;
    }
  }
  return true;
}

/// Run `attempt(launch, strategy)` under the graceful-degradation policy —
/// the one loop that retries and degrades launches. Each call gets the
/// current, possibly degraded, geometry and strategy config and returns a
/// result carrying `stats`; a device-side failure, an allocation's
/// included, escapes it as gpusim::LaunchError. `strategy.sim.faults` is
/// the fault spec ("" arms nothing); its alloc_fail faults are armed on
/// `dev` before each call.
/// `verify` (optional) is the numeric guard: it sees a completed result that
/// passed finite_scalar and returns false — filling `detail` — when the
/// values are unacceptable (the testsuite runner passes its
/// sequential-reference check here).
/// Failed attempts walk:
///
///   rung 0  as given; after the first failure, non-sticky injected
///           faults are stripped (a deterministic injector fails every
///           retry identically), then up to max_retries same-rung re-runs
///   rung 1  warp-synchronous tail off (tree.unroll_last_warp = false)
///   rung 2+ halve vector_length (floor 32), then num_workers (floor 1)
///
/// Never throws LaunchError: terminal failure comes back in the result.
template <typename Attempt,
          typename R = std::invoke_result_t<Attempt&, const LaunchConfig&,
                                            const reduce::StrategyConfig&>>
GuardedResult<R> execute_guarded(
    gpusim::Device& dev, LaunchConfig launch, reduce::StrategyConfig strategy,
    Attempt&& attempt, const GuardPolicy& policy = {},
    const std::type_identity_t<std::function<bool(const R&, std::string&)>>&
        verify = {}) {
  GuardedResult<R> out;
  // The attempt's fault spec; stripping its non-sticky faults rewrites it.
  std::string& spec = strategy.sim.faults;

  const auto append_events = [&out](std::vector<gpusim::FaultEvent> evs) {
    for (gpusim::FaultEvent& e : evs) {
      if (out.fault_events.size() >=
          gpusim::BlockFaults::kMaxEventsPerLaunch) {
        break;
      }
      out.fault_events.push_back(std::move(e));
    }
  };

  int failures_on_rung = 0;
  int rung = 0;  // plan changes so far; DegradeEvent::rung and the
                 // GuardPolicy::max_degrade_rungs bound both count these
  const auto may_degrade = [&policy, &rung] {
    return policy.degrade &&
           (policy.max_degrade_rungs < 0 || rung < policy.max_degrade_rungs);
  };
  for (;;) {
    ++out.attempts;
    gpusim::FaultPlan faults;
    if (!spec.empty()) faults = gpusim::FaultPlan::parse(spec);
    out.faults_armed = out.faults_armed || !faults.empty();
    // Alloc-fail arms are one-shot on the device; re-arm the current set
    // each attempt so sticky alloc faults keep firing down the ladder.
    if (faults.has_alloc_faults()) {
      dev.arm_alloc_faults(faults);
    } else {
      dev.clear_alloc_faults();
    }

    gpusim::LaunchErrorInfo fail;
    try {
      R res = attempt(launch, strategy);
      append_events(std::move(res.stats.fault_events));
      std::string detail;
      if (finite_scalar(res, detail) && (!verify || verify(res, detail))) {
        out.ok = true;
        out.result = std::move(res);
        out.launch = launch;
        out.strategy = strategy;
        out.recovered = out.attempts > 1;
        dev.clear_alloc_faults();
        return out;
      }
      fail.code = gpusim::LaunchErrorCode::kNumericGuard;
      fail.message =
          detail.empty() ? "result failed the numeric guard" : detail;
    } catch (const gpusim::LaunchError& e) {
      fail = e.info();
      // Faults that fired before the launch died ride on the error (the
      // attempt's stats are gone) — e.g. a skip_barrier whose race got
      // escalated, or a bitflip in an earlier block of the aborting shard.
      const bool carried = !fail.fired.empty();
      append_events(std::move(fail.fired));
      fail.fired.clear();
      // Synthesize an event only when the injected error recorded none
      // itself (an alloc_fail fires on the Device, outside BlockFaults).
      // Only warp_abort and alloc_fail surface as exceptions; the data
      // faults corrupt silently.
      if (fail.injected && !carried) {
        gpusim::FaultEvent ev;
        ev.kind = fail.code == gpusim::LaunchErrorCode::kOom
                      ? gpusim::FaultKind::kAllocFail
                      : gpusim::FaultKind::kWarpAbort;
        ev.block = fail.block;
        ev.warp = fail.warp;
        ev.stage = fail.stage;
        ev.detail = fail.message;
        append_events({std::move(ev)});
      }
    }

    DegradeEvent ev;
    ev.attempt = out.attempts;
    ev.rung = rung;
    ev.code = fail.code;
    ev.reason = to_string(fail);
    ++failures_on_rung;
    ev.failure_on_rung = failures_on_rung;

    // Decide the next move. A client cancellation is terminal before any
    // ladder logic runs — retrying or degrading a job the client no longer
    // wants only burns device time (and the token would fail every retry
    // identically anyway). Then the attempt budget: once spent, the ladder
    // may not launch again regardless of remaining rungs. Then the normal
    // ladder, where stripping non-sticky faults is always the first
    // response to a failure with one armed: the injector is deterministic,
    // so an unmodified retry would fail identically. The parsed plan
    // decides, not the spec text: a spec may write its keys in any order.
    const bool strip = std::ranges::any_of(
        faults.faults(), [](const gpusim::Fault& f) { return !f.sticky; });
    const auto degrade = [&](const std::string& change) {
      ev.action = "degrade: " + change;
      out.degraded = true;
      failures_on_rung = 0;
      ++rung;
    };
    bool give_up = false;
    if (fail.code == gpusim::LaunchErrorCode::kCancelled) {
      ev.action = "cancelled: give up";
      give_up = true;
    } else if (policy.max_total_attempts > 0 &&
               out.attempts >= policy.max_total_attempts) {
      ev.action = "attempt budget exhausted: give up";
      give_up = true;
    } else if (out.attempts == 1 && strip) {
      spec = faults.sticky_spec();
      ev.action = "strip non-sticky faults and retry";
    } else if (failures_on_rung <= policy.max_retries) {
      ev.action = "retry";
    } else if (may_degrade() && strategy.tree.unroll_last_warp) {
      strategy.tree.unroll_last_warp = false;
      degrade("all-barriers tree (unroll_last_warp off)");
    } else if (may_degrade() && launch.vector_length > 32) {
      const std::uint32_t prev = launch.vector_length;
      launch.vector_length = prev / 2;
      degrade("vector_length " + std::to_string(prev) + " -> " +
              std::to_string(launch.vector_length));
    } else if (may_degrade() && launch.num_workers > 1) {
      const std::uint32_t prev = launch.num_workers;
      launch.num_workers = prev / 2;
      degrade("num_workers " + std::to_string(prev) + " -> " +
              std::to_string(launch.num_workers));
    } else {
      ev.action = "give up";  // ladder exhausted
      give_up = true;
    }
    if (give_up) {
      out.events.push_back(std::move(ev));
      out.launch = launch;  // what the last attempt ran
      out.strategy = strategy;
      out.error = std::move(fail);
      out.degraded = false;  // only a *successful* degraded run counts
      dev.clear_alloc_faults();
      return out;
    }
    if (obs::trace_enabled()) {
      obs::trace_complete(
          "degrade", 0, obs::trace_now_us(), 0,
          {{"attempt", static_cast<double>(ev.attempt)},
           {"code", static_cast<double>(static_cast<int>(ev.code))}});
    }
    out.events.push_back(std::move(ev));
  }
}

/// Run `plan` with the given loop-body bindings under the same policy:
/// each attempt executes the plan at the ladder's current geometry and
/// strategy config.
template <typename T>
GuardedResult<reduce::ReduceResult<T>> execute_guarded(
    gpusim::Device& dev, ExecutionPlan plan, const reduce::Bindings<T>& b,
    const GuardPolicy& policy = {},
    const std::function<bool(const reduce::ReduceResult<T>&, std::string&)>&
        verify = {}) {
  return execute_guarded(
      dev, plan.launch, plan.strategy,
      [&](const LaunchConfig& launch, const reduce::StrategyConfig& strategy) {
        plan.launch = launch;
        plan.strategy = strategy;
        return execute<T>(dev, plan, b);
      },
      policy, verify);
}

}  // namespace accred::acc
