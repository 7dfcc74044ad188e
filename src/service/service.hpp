// Reduction-as-a-service: a long-running multi-tenant executor over the
// acc planner and the simulated device (DESIGN.md §13).
//
//   * a submission is a JobSpec (job.hpp) naming a reduction cell at a
//     runtime extent; completion is async through a std::future or a
//     callback, thousands in flight;
//   * admission control gates every submission against the simulated
//     device's occupancy and memory budget *before* it queues — overload
//     answers with reject-with-backpressure (JobStatus::kRejected), never
//     with a device OOM mid-run;
//   * dispatch is per-tenant weighted fair queuing (start-time virtual
//     clocks): a tenant flooding the queue gets its weight's share and no
//     more, and never starves the others;
//   * every admitted job is planned on its own through plan_job (analyze
//     + plan of the cell's annotated nest, under 1 us against a job's
//     milliseconds of simulation), after admission and outside the lock;
//   * every job executes under acc::execute_guarded on its own simulated
//     Device, so one tenant's injected faults degrade that tenant's job
//     only — sibling results are bit-identical with or without the
//     neighbor's campaign (tests/service/test_service.cpp).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "service/job.hpp"

namespace accred::service {

/// Declared tenant with a scheduling weight (share of dispatch slots).
/// Undeclared tenants are created on first submission with weight 1.
struct TenantConfig {
  std::string name;
  double weight = 1.0;
};

struct ServiceConfig {
  /// Executor threads running jobs (each on its own simulated Device).
  std::uint32_t workers = 2;
  /// Occupancy budget: max admitted-but-incomplete jobs. 0 = default from
  /// the default gpusim::DeviceLimits (num_sms x max_blocks_per_sm
  /// resident blocks — the most work the modeled device could ever have
  /// co-resident).
  std::size_t queue_capacity = 0;
  /// Memory budget: total estimated device bytes across admitted jobs.
  /// 0 = the default device's global memory size.
  std::size_t memory_budget_bytes = 0;
  /// Start with dispatch paused (admission still runs): deterministic
  /// queue build-up for tests and the bench's admission phase.
  bool start_paused = false;

  // --- Resilience layer (DESIGN.md §16) -------------------------------

  /// Per-tenant circuit breaker: consecutive structured failures (ladder
  /// exhausted / planning failed) that trip the tenant's breaker open, so
  /// its submissions fast-fail with kCircuitOpen instead of burning
  /// execute_guarded retries. 0 = breaker off. Failure counts advance at
  /// the virtual-timeline cursor (admission order), so trips are
  /// bit-deterministic for any worker count.
  std::uint32_t breaker_threshold = 0;
  /// Virtual-time cooldown before an open breaker half-opens and admits a
  /// single probe job. Measured on the timeline clock from the tripping
  /// job's virtual finish.
  std::uint64_t breaker_cooldown_ns = 1'000'000;
  /// CoDel-style overload shedding: when the modeled queue wait (dispatch
  /// clock) stays above this target for as long again in virtual time (the
  /// CoDel interval is the target), each further dispatch sheds the
  /// youngest-virtual-arrival queued job as kShed. 0 = shedding off.
  std::uint64_t shed_target_ns = 0;
  /// Per-tenant retry token bucket: tokens per virtual second (dispatch
  /// clock) a tenant may spend on extra guarded attempts beyond each job's
  /// first. 0 = budget off (attempts bounded only by the job's ladder).
  /// Grants are debited at dispatch — the one bit-deterministic point —
  /// so the budget bounds *granted* attempts, which bounds consumed ones.
  double retry_budget_per_sec = 0;
  /// Bucket capacity in tokens; 0 = max(1, retry_budget_per_sec).
  double retry_budget_burst = 0;
  /// Cap on retry tokens one dispatch may take from the bucket (bounds the
  /// pessimism of debit-at-dispatch). Only meaningful with a budget.
  std::uint32_t retry_tokens_per_job = 4;
  /// Degradation-ladder depth applied to every job's guarded execution:
  /// -1 = unlimited (the full ladder), 0 = retries only, N = at most N
  /// plan changes (GuardPolicy::max_degrade_rungs).
  int max_degrade_rungs = -1;
};

/// Per-tenant accounting, read from the tenant's telemetry counters.
struct TenantStats {
  double weight = 1.0;
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;  ///< includes failed (executed) jobs
};

/// Whole-service counters, read from the telemetry registry (the one
/// tally, DESIGN.md §14), plus the live occupancy (queued, inflight,
/// admitted_bytes). Surfaced into accred.bench records by the service
/// benches.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected_queue = 0;   ///< occupancy backpressure
  std::uint64_t rejected_memory = 0;  ///< memory-budget backpressure
  std::uint64_t completed = 0;        ///< executed and verified
  std::uint64_t failed = 0;           ///< executed, ladder exhausted / F cell
  std::uint64_t recovered = 0;        ///< verified after >= 1 failed attempt
  std::uint64_t degraded = 0;         ///< verified on a degraded rung
  std::uint64_t cancelled = 0;          ///< client-cancelled (queued or mid-run)
  std::uint64_t deadline_exceeded = 0;  ///< modeled wait passed the deadline
  std::uint64_t shed = 0;               ///< dropped by overload shedding
  std::uint64_t rejected_breaker = 0;   ///< fast-failed on an open breaker
  std::uint64_t breaker_opens = 0;      ///< breaker open transitions (incl. reopens)
  std::uint64_t queued = 0;           ///< admitted, not yet dispatched
  std::uint64_t inflight = 0;         ///< dispatched, not yet complete
  std::size_t admitted_bytes = 0;     ///< reserved against the memory budget
};

class ReductionService {
public:
  explicit ReductionService(ServiceConfig cfg = {},
                            std::vector<TenantConfig> tenants = {});
  /// Stops accepting, finishes in-flight jobs, and fails still-queued ones
  /// with kRejected("service stopped"). Call drain() first for a clean end.
  ~ReductionService();

  ReductionService(const ReductionService&) = delete;
  ReductionService& operator=(const ReductionService&) = delete;

  /// Submit asynchronously; the future resolves when the job completes
  /// (or immediately, for admission rejections). Wraps the callback
  /// flavor with a callback that fulfils the future.
  [[nodiscard]] std::future<JobResult> submit(JobSpec spec);
  /// Callback flavor: runs on the executing worker thread — inline on the
  /// submitting thread for admission rejections and planning failures,
  /// on the destroying thread for jobs the destructor fails. Should not
  /// block: drain() waits for it.
  void submit(JobSpec spec, std::function<void(JobResult)> callback);

  /// Pause / resume dispatch. Admission keeps running while paused.
  void pause();
  void resume();
  /// Block until every admitted job has settled: its future is ready and
  /// its callback has returned. Dispatch must be running (resume() first
  /// if paused) or this never returns.
  void drain();
  /// Bounded drain: wait at most `timeout`, then return the number of
  /// still-undelivered jobs (0 = fully drained). A liveness regression
  /// then fails a test in seconds instead of hanging it.
  [[nodiscard]] std::uint64_t drain(std::chrono::nanoseconds timeout);

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] std::map<std::string, TenantStats> tenant_stats() const;
  [[nodiscard]] const ServiceConfig& config() const { return cfg_; }

  /// Telemetry registry (DESIGN.md §14): lifecycle counters plus latency /
  /// occupancy histograms from the virtual service timeline. Always
  /// collected (the registry is cheap). At a quiescent point (after
  /// drain()) the contents are a pure function of the submission sequence
  /// — bit-identical for any worker count and any --sim-threads.
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }
  /// metrics().to_json() — the schema-v3 "telemetry" section.
  [[nodiscard]] obs::Json metrics_json() const;

  /// Admission-time estimate of a job's device footprint in bytes (input
  /// + temp copy + per-instance outputs + worst-case staging buffers).
  /// A pure function of the spec, so admission decisions are reproducible.
  [[nodiscard]] static std::size_t estimate_bytes(const JobSpec& spec);

  /// Spec-pure estimate of a job's service time on the dispatch clock
  /// (DESIGN.md §16): the resilience decisions (deadlines, shedding, retry
  /// refill) need a clock that exists *before* the job runs, so they pace
  /// on this estimate while the telemetry timeline keeps the modeled
  /// truth. ~200 bytes/ns of the admission byte estimate.
  [[nodiscard]] static std::uint64_t estimate_service_ns(const JobSpec& spec);

private:
  struct Pending {
    JobSpec spec;
    acc::ExecutionPlan plan;
    std::uint64_t id = 0;
    std::size_t bytes = 0;
    std::uint64_t est_ns = 0;      ///< estimate_service_ns(spec), at admission
    std::uint64_t varrival_ns = 0; ///< arrival on the dispatch clock
    /// Attempt cap granted by the retry budget at dispatch (1 + tokens
    /// taken); 0 = budget off, ladder bounds attempts.
    int attempts_granted = 0;
    std::function<void(JobResult)> callback;
    std::chrono::steady_clock::time_point submitted_at;
    double enqueue_us = 0;  ///< trace timestamp of the enqueue (trace only)
  };

  /// Circuit-breaker state machine (DESIGN.md §16): kClosed counts
  /// consecutive structured failures at the timeline cursor; kOpen
  /// fast-fails submissions until the virtual cooldown elapses; kHalfOpen
  /// admits one probe whose verdict closes or reopens the breaker.
  enum class Breaker : std::uint8_t { kClosed, kOpen, kHalfOpen };

  struct Tenant {
    double weight = 1.0;
    double pass = 0.0;  ///< virtual finish time of the next dispatch
    std::deque<Pending> queue;
    // Breaker state, advanced only at deterministic points: transitions at
    // the timeline cursor (admission order), reads at submission.
    Breaker breaker = Breaker::kClosed;
    std::uint32_t consecutive_failures = 0;
    std::uint64_t breaker_open_until_ns = 0;  ///< timeline clock
    bool probe_inflight = false;
    // Retry token bucket (fixed point: 1 token = kTokenUnit units),
    // refilled on the dispatch clock, debited at dispatch.
    std::uint64_t bucket_units = 0;
    std::uint64_t bucket_refill_ns = 0;
    bool bucket_primed = false;  ///< bucket starts full on first touch
  };

  /// One admitted job's slot on the virtual service timeline — the
  /// deterministic replacement for wall-clock queue waits (DESIGN.md §14).
  /// Slots are indexed by job id - 1 (ids are handed out in admission
  /// order), filled at completion, and consumed strictly in admission
  /// order by complete_virtual()'s cursor, so the derived
  /// histograms never see the completion interleaving.
  /// Breaker-relevant outcome of a consumed slot: only kFailed counts
  /// toward (and kOk resets) the consecutive-failure count; kNeutral —
  /// cancelled, deadline-exceeded, shed, doomed — does neither.
  enum class SlotVerdict : std::uint8_t { kNeutral, kOk, kFailed };

  struct VirtualSlot {
    bool done = false;
    std::uint64_t device_ns = 0;  ///< modeled device time (0 if never ran)
    std::uint64_t finish_ns = 0;  ///< virtual departure, set by the cursor
    std::uint64_t bytes = 0;      ///< admission-time footprint estimate
    std::string tenant;
    SlotVerdict verdict = SlotVerdict::kNeutral;
    bool probe = false;  ///< the half-open breaker's single probe job
  };

  void worker_main(std::uint32_t worker_index);
  void run_job(Pending job, std::uint32_t worker_index);
  /// Terminal resolution without launching (cancelled while queued,
  /// deadline exceeded, shed): emits the lifecycle span on the queue row
  /// and settles the job on worker `worker_index`'s row.
  void resolve_unlaunched(Pending job, JobStatus status, std::string reason,
                          std::uint32_t worker_index);
  /// The one end of every admitted job (DESIGN.md §13). Under mu_: frees
  /// its occupancy and memory budget, books the service and tenant
  /// counters `result.status` names, and fills its timeline slot with the
  /// verdict that status implies (kOk -> kOk, kFailed -> kFailed, anything
  /// else -> kNeutral). Then runs the callback — a "deliver" span on trace
  /// row `tid` — and only after it returns releases drain().
  void settle(Pending& job, JobResult result, std::uint32_t tid);
  /// Mark job `id`'s slot complete with `device_ms` of modeled device time
  /// and `verdict` for the breaker, and advance the timeline cursor over
  /// every consecutive done slot (breaker transitions happen there, in
  /// admission order). Caller holds mu_.
  void complete_virtual(std::uint64_t id, double device_ms,
                        SlotVerdict verdict);

  ServiceConfig cfg_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: job queued / stop
  std::condition_variable idle_cv_;  ///< drain(): undelivered count hit zero
  std::map<std::string, Tenant> tenants_;
  double virtual_time_ = 0.0;  ///< WFQ clock: pass of the last dispatch
  std::uint64_t next_id_ = 1;
  std::uint64_t open_jobs_ = 0;  ///< admitted, not yet complete (the budget)
  /// Admitted, result not yet delivered. Trails open_jobs_ by the delivery
  /// window: the budget frees as soon as a job's work is done (so
  /// completion-paced clients are never back-pressured), while drain()
  /// waits for this — every future ready, every callback run.
  std::uint64_t undelivered_ = 0;
  std::uint64_t queued_ = 0;
  std::size_t admitted_bytes_ = 0;
  bool paused_ = false;
  bool stop_ = false;

  /// Telemetry (DESIGN.md §14) and the service's only tally: stats() and
  /// tenant_stats() read their counters back from it. The registry's own
  /// locks are leaves — taken under mu_, never the other way around.
  obs::MetricsRegistry metrics_;
  /// Virtual timeline state, all guarded by mu_: arrivals are paced at the
  /// running mean device time (utilization 1), start times follow the
  /// Lindley recursion start = max(arrival, previous finish).
  std::vector<VirtualSlot> timeline_;    ///< slot i = job id i + 1
  std::size_t vcursor_ = 0;              ///< next slot to consume
  std::size_t vretire_ = 0;              ///< first slot still in system
  std::uint64_t varrival_ns_ = 0;        ///< arrival of the last consumed
  std::uint64_t vfinish_ns_ = 0;         ///< finish of the last consumed
  std::uint64_t vtotal_device_ns_ = 0;   ///< device-time sum of consumed
  std::uint64_t vbytes_in_system_ = 0;   ///< footprint of unretired slots

  /// Dispatch clock (DESIGN.md §16), all guarded by mu_: a second Lindley
  /// recursion over *estimated* service times, advanced at admission
  /// (arrival pacing) and at each dispatch pick. Deadlines, shedding and
  /// retry refills read it — unlike the telemetry timeline above, it is
  /// known before a job runs, so dispatch decisions can use it and stay a
  /// pure function of the dispatch sequence.
  std::uint64_t dnow_ns_ = 0;        ///< virtual server finish
  std::uint64_t darrival_ns_ = 0;    ///< arrival of the last admitted job
  std::uint64_t dtotal_est_ns_ = 0;  ///< estimate sum over admitted jobs
  std::uint64_t dadmitted_ = 0;      ///< jobs admitted (arrival pacing)
  std::uint64_t shed_first_above_ns_ = 0;  ///< CoDel: wait first crossed target

  std::vector<std::thread> workers_;
};

}  // namespace accred::service
