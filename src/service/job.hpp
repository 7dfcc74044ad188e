// Service job vocabulary: what one tenant submission to the reduction
// service (service.hpp) looks like, and how every admitted job is planned.
// A job is a Table-2-shaped reduction — position x operator x dtype at a
// runtime extent, or a Fig. 4 chain — planned from the same annotated nest
// the testsuite runner builds for that cell.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "acc/planner.hpp"
#include "acc/profiles.hpp"
#include "testsuite/cases.hpp"
#include "testsuite/runner.hpp"

namespace accred::service {

/// One tenant submission: which reduction to run, at what extent, with
/// which per-job options. Buffers are owned by the executing worker (one
/// simulated Device per job — see DESIGN.md §13 on fault isolation).
struct JobSpec {
  std::string tenant = "default";
  acc::CompilerId compiler = acc::CompilerId::kOpenUH;
  testsuite::CaseSpec kase;  ///< position x operator x dtype
  /// Reduction-loop extent (the Table 2 "r"); total volume is 64 x this.
  std::int64_t reduction_extent = 1 << 12;
  /// Cascaded-chain job: per-stage ops, innermost first (vector, worker,
  /// gang). Empty = scalar job at `kase`. When set, planning goes through
  /// plan_chained() and yields one fused kFusedCascade plan instead of N
  /// per-level launches, and the runner verifies it against a
  /// stage-by-stage fold with each stage's op. plan_job refuses a list
  /// that is not exactly 3 ops and a `kase.pos` other than
  /// kGangWorkerVector (the chain's geometry); `kase.op` only picks the
  /// input values (testsuite_value).
  std::vector<acc::ReductionOp> chain_ops;
  acc::LaunchConfig config{};  ///< launch geometry knobs
  /// Per-job fault-injection spec (faultinject.hpp grammar); "" = clean.
  /// Faults are armed on this job's own device and launches only — one
  /// tenant's campaign never perturbs another tenant's results.
  std::string faults;
  /// Same-configuration re-runs before the degradation ladder engages.
  int max_retries = 1;
  /// Host worker threads per kernel launch (0 = process default). Results
  /// are bit-identical for every value (DESIGN.md §7).
  std::uint32_t sim_threads = 0;
  /// Deadline on the *modeled* queue wait, in virtual nanoseconds on the
  /// service's dispatch clock (DESIGN.md §16): a job still queued when its
  /// modeled wait exceeds this resolves as kDeadlineExceeded without ever
  /// launching. 0 = no deadline. Virtual-clock comparison keeps the
  /// decision bit-deterministic for any worker count.
  std::uint64_t deadline_ns = 0;
  /// Client-visible cancellation (gpusim/pool.hpp). The client keeps one
  /// end; the service checks it at dispatch (a cancelled queued job
  /// resolves kCancelled without launching) and wires it into every kernel
  /// the job launches, so a running job terminates cooperatively with a
  /// structured kCancelled. Cancelling after delivery is a no-op. For
  /// deterministic mid-flight cancels use CancelToken::cancel_at_launch().
  std::shared_ptr<gpusim::CancelToken> cancel;
};

/// Terminal state of a submission.
enum class JobStatus : std::uint8_t {
  kOk,        ///< executed and verified against the sequential fold
  kFailed,    ///< executed but every rung of the degradation ladder failed
  kRejected,  ///< refused at admission (backpressure) — never executed
  kCancelled,         ///< client cancelled (queued or mid-run) — structured
  kDeadlineExceeded,  ///< modeled queue wait passed the deadline; never ran
  kShed,              ///< dropped by overload shedding (CoDel); never ran
  kCircuitOpen,       ///< fast-failed: the tenant's circuit breaker is open
};

[[nodiscard]] std::string_view to_string(JobStatus s);

/// What the service hands back through the future / callback.
struct JobResult {
  JobStatus status = JobStatus::kRejected;
  std::uint64_t job_id = 0;
  std::string tenant;
  /// Why the job never launched: set for kRejected, kCircuitOpen, kShed,
  /// kDeadlineExceeded, and for kCancelled jobs cancelled while queued.
  std::string reject_reason;
  /// Full execution outcome (stats, device_ms, degradation history,
  /// result_hash) when the job ran; default-constructed for rejections.
  testsuite::CaseOutcome outcome;
  /// Always false: the service plans every admitted job with plan_job and
  /// has no plan cache to hit. Kept only because perfbench/workloads.cpp
  /// still reads it.
  bool plan_cache_hit = false;
  double queue_ms = 0;    ///< admission -> dispatch (host wall clock)
  double service_ms = 0;  ///< admission -> completion (host wall clock)
};

/// Plan one job: analyze + plan the annotated nest the testsuite builds
/// for its cell (testsuite::plan_for_case), or its Fig. 4 chain through
/// acc::plan_chained. The service calls this for every admitted job.
/// Throws acc::AnalysisError for a nest the analysis rejects (e.g. a zero
/// launch dimension) and std::invalid_argument for a chain_ops list that
/// is not exactly 3 ops or a chain at any position but kGangWorkerVector.
/// The Table 2 robustness model's CE cells plan like any other cell.
[[nodiscard]] acc::ExecutionPlan plan_job(const JobSpec& job);

/// RunnerOptions equivalent to this job's knobs (the executing worker
/// feeds them to testsuite::Runner).
[[nodiscard]] testsuite::RunnerOptions runner_options(const JobSpec& job);

}  // namespace accred::service
