// Executes testsuite cases: builds the annotated nest for a case exactly
// as a user of the given compiler would write it (single clause for the
// auto-detecting compilers, clause-on-every-level for the CAPS
// discipline), runs the planned strategy on the simulated device, verifies
// the result against the sequential CPU fold, and reports the modeled
// device time — one Table 2 cell per call.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "acc/planner.hpp"
#include "acc/profiles.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/pool.hpp"
#include "testsuite/cases.hpp"

namespace accred::testsuite {

struct RunnerOptions {
  /// The reduction-loop extent (the paper's "up to 1M" = 2^20). Scaled
  /// down by default so the full grid simulates in seconds, preserving
  /// every modeled shape (costs are linear in the extent).
  std::int64_t reduction_extent = 1 << 17;
  /// Include the Fig. 4-style parallel copy (temp = input) on the
  /// non-reducing levels; this is the bulk of every case's memory traffic.
  bool parallel_work = true;
  acc::LaunchConfig config{};  ///< paper defaults: 192 / 8 / 128
  /// Host worker threads per kernel launch, forwarded into every planned
  /// strategy's SimOptions. 0 = process default (ACCRED_SIM_THREADS env /
  /// hardware_concurrency), 1 = serial; results are identical either way.
  std::uint32_t sim_threads = 0;
  /// Run every planned strategy under the dynamic race detector
  /// (gpusim/racecheck.hpp); conflicts land in CaseOutcome::stats.
  bool racecheck = false;
  /// Fault-injection spec (gpusim/faultinject.hpp grammar) armed on every
  /// planned strategy and on the runner's own device allocations; "" = the
  /// ACCRED_FAULTS env default.
  std::string faults = {};
  /// Guarded execution: same-configuration re-runs after a failed attempt
  /// before the ladder degrades the plan (acc::execute_guarded).
  int max_retries = 1;
  /// Walk the degradation ladder (all-barriers tree, then smaller launch
  /// geometry) after the retries; off = retry only.
  bool degrade = true;
  /// Degradation rungs the ladder may descend: -1 = unlimited, 0 = none,
  /// N = stop after the Nth plan change (GuardPolicy::max_degrade_rungs).
  int max_degrade_rungs = -1;
  /// Hard cap on total guarded attempts (0 = unlimited) — the hook the
  /// service's per-tenant retry budget debits against.
  int max_total_attempts = 0;
  /// Client cancellation token observed by every kernel this case
  /// launches (gpusim::CancelToken): once cancelled, the run terminates
  /// with a structured kCancelled in CaseOutcome::stats.error and the
  /// guarded ladder stops immediately. Null = not cancellable.
  std::shared_ptr<gpusim::CancelToken> cancel = nullptr;
  /// Escalate racecheck conflicts into LaunchError{kRace} (the terminating
  /// verdict for deleted-barrier mutants; needs racecheck).
  bool error_on_race = false;
  /// Watchdog barrier-wave budget override per kernel; 0 = default
  /// (ACCRED_MAX_STEPS env, else gpusim::kDefaultMaxSteps).
  std::uint64_t max_steps = 0;
  /// Limits for the per-case simulated Device (the reduction service runs
  /// every job on its own Device built from these).
  gpusim::DeviceLimits device_limits{};
};

struct CaseOutcome {
  acc::Robustness status = acc::Robustness::kOk;  ///< modeled F / CE cells
  bool verified = false;  ///< result matched the CPU fold (when status=Ok)
  double device_ms = 0;   ///< modeled kernel time
  double wall_ms = 0;     ///< host simulation time (informational)
  gpusim::LaunchStats stats;
  int kernels = 0;
  std::string detail;  ///< mismatch / error diagnostics
  int attempts = 1;    ///< executions the guarded run needed (incl. allocs)
  bool recovered = false;  ///< verified after at least one failed attempt
  bool degraded = false;   ///< verified on a degraded plan
  /// Rendered degradation history ("attempt N failed (code): … -> action"),
  /// empty on a clean first-attempt pass.
  std::vector<std::string> events;
  /// FNV-1a over the bit patterns of the verified results (scalar and the
  /// per-instance output buffer); 0 until a run verifies. Lets callers
  /// compare results for bit-identity across runs without holding buffers
  /// — the service's fault-isolation tests key on it.
  std::uint64_t result_hash = 0;
};

/// Build the annotated nest for a case exactly as the runner does (useful
/// for inspecting plans and emitting the generated CUDA source).
[[nodiscard]] acc::NestIR nest_for_case(const CaseSpec& spec,
                                        const RunnerOptions& opts,
                                        acc::ClauseDiscipline discipline);

/// Analyze + plan a case under a compiler profile.
[[nodiscard]] acc::ExecutionPlan plan_for_case(acc::CompilerId id,
                                               const CaseSpec& spec,
                                               const RunnerOptions& opts);

/// The Fig. 4 chained nest (i_sum -> j_sum -> sum, one reduction per
/// level, every stage using `op`) at the gang-worker-vector geometry for
/// `reduction_extent`. analyze() detects one fusable chain over it;
/// plan_chained() lowers it to a kFusedCascade plan.
[[nodiscard]] acc::NestIR nest_for_chain(acc::ReductionOp op,
                                         acc::DataType type,
                                         const RunnerOptions& opts);

/// Same nest with per-stage ops, innermost stage first ({vector, worker,
/// gang}) — the order ExecutionPlan::chain and service JobSpec::chain_ops
/// use.
[[nodiscard]] acc::NestIR nest_for_chain(
    const std::array<acc::ReductionOp, 3>& ops, acc::DataType type,
    const RunnerOptions& opts);

class Runner {
public:
  explicit Runner(RunnerOptions opts = {}) : opts_(opts) {}

  /// Run one Table 2 cell for one compiler.
  [[nodiscard]] CaseOutcome run(acc::CompilerId id, const CaseSpec& spec);

  /// Same, but execute a pre-built plan (e.g. the one the service made at
  /// admission) instead of planning from scratch. The plan must describe this
  /// case at these options — only sim knobs (threads, faults, racecheck,
  /// max_steps) are applied on top.
  [[nodiscard]] CaseOutcome run_planned(acc::CompilerId id,
                                        const CaseSpec& spec,
                                        const acc::ExecutionPlan& plan);

  /// Run one extended-kind cell (argmin/argmax, segmented, fused cascade)
  /// under a compiler profile's strategy configuration, with the same
  /// verification, racecheck, fault-injection and retry treatment as the
  /// scalar grid.
  [[nodiscard]] CaseOutcome run_ext(acc::CompilerId id, const ExtSpec& spec);

  [[nodiscard]] const RunnerOptions& options() const noexcept {
    return opts_;
  }

private:
  RunnerOptions opts_;
};

}  // namespace accred::testsuite
