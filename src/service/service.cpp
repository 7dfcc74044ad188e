#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "gpusim/dim3.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace accred::service {

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Virtual tids for the service's trace rows: admission and planning run
/// on whichever thread submits, and the queue is not a thread at all, so
/// the spans get stable synthetic rows instead (workers are 1000 + index,
/// matching the execute spans).
constexpr std::uint32_t kDispatcherTid = 900;
constexpr std::uint32_t kQueueTid = 901;

/// Modeled milliseconds -> integer nanoseconds, the virtual timeline's
/// unit (and the 1e6 histogram scale below).
std::uint64_t to_device_ns(double device_ms) {
  if (!(device_ms > 0)) return 0;
  return static_cast<std::uint64_t>(std::llround(device_ms * 1e6));
}

/// Retry-bucket fixed point: 1 token = 1e9 units, so a rate in tokens per
/// virtual second adds `rate` units per virtual nanosecond.
constexpr std::uint64_t kTokenUnit = 1'000'000'000;

/// Tokens (scaled to units) a bucket gains over `elapsed_ns` at `rate`
/// tokens per virtual second. llround of a product of the same operands is
/// the same value on every run — deterministic, like the timeline itself.
std::uint64_t refill_units(double rate, std::uint64_t elapsed_ns) {
  if (rate <= 0 || elapsed_ns == 0) return 0;
  return static_cast<std::uint64_t>(
      std::llround(rate * static_cast<double>(elapsed_ns)));
}

/// The service-level counters — interned up front, so their names never
/// depend on which code paths fired — and the ServiceStats field each one
/// reads back into.
constexpr std::pair<const char*, std::uint64_t ServiceStats::*>
    kServiceCounters[] = {
        {"service/submitted", &ServiceStats::submitted},
        {"service/admitted", &ServiceStats::admitted},
        {"service/rejected_queue", &ServiceStats::rejected_queue},
        {"service/rejected_memory", &ServiceStats::rejected_memory},
        {"service/completed", &ServiceStats::completed},
        {"service/failed", &ServiceStats::failed},
        {"service/recovered", &ServiceStats::recovered},
        {"service/degraded", &ServiceStats::degraded},
        {"service/cancelled", &ServiceStats::cancelled},
        {"service/deadline_exceeded", &ServiceStats::deadline_exceeded},
        {"service/shed_total", &ServiceStats::shed},
        {"service/breaker_open_total", &ServiceStats::breaker_opens},
        {"service/rejected_breaker", &ServiceStats::rejected_breaker},
};

/// The service counter that books an admitted job settling with `status`.
const char* settled_counter(JobStatus status) {
  switch (status) {
    case JobStatus::kOk: return "service/completed";
    case JobStatus::kFailed: return "service/failed";
    case JobStatus::kCancelled: return "service/cancelled";
    case JobStatus::kDeadlineExceeded: return "service/deadline_exceeded";
    case JobStatus::kShed: return "service/shed_total";
    default: return "service/rejected_queue";  // stopped before dispatch
  }
}

/// A counter's value, 0 when the registry never interned it (a tenant
/// with no traffic of that kind); looking it up interns nothing.
std::uint64_t counted(const obs::MetricsRegistry& reg, std::string_view name) {
  const obs::Counter* c = reg.find_counter(name);
  return c != nullptr ? c->value() : 0;
}

}  // namespace

ReductionService::ReductionService(ServiceConfig cfg,
                                   std::vector<TenantConfig> tenants)
    : cfg_(cfg) {
  if (cfg_.workers == 0) cfg_.workers = 1;
  // Every job runs on a Device built from the default limits, so the
  // budget defaults come from them too.
  const gpusim::DeviceLimits device{};
  if (cfg_.queue_capacity == 0) {
    // Occupancy default: the modeled device can have at most
    // num_sms x max_blocks_per_sm blocks co-resident; admitting more jobs
    // than that many units of work buys latency, not throughput.
    cfg_.queue_capacity =
        std::size_t{device.num_sms} * device.max_blocks_per_sm;
  }
  if (cfg_.memory_budget_bytes == 0) {
    cfg_.memory_budget_bytes = device.global_mem_bytes;
  }
  paused_ = cfg_.start_paused;
  for (TenantConfig& t : tenants) {
    Tenant tenant;
    tenant.weight = t.weight > 0 ? t.weight : 1.0;
    tenants_.emplace(std::move(t.name), std::move(tenant));
  }
  // Intern the whole service-level metric surface up front: the registry's
  // shape (and so the telemetry section's key set) depends only on the
  // tenant names traffic touches, never on which code paths happened to
  // fire. Per-tenant metrics intern on first touch.
  for (const auto& [name, field] : kServiceCounters) {
    (void)metrics_.counter(name);
  }
  (void)metrics_.gauge("service/queue_depth_max");
  (void)metrics_.gauge("service/inflight_bytes_max");
  (void)metrics_.histogram("service/queue_depth");
  (void)metrics_.histogram("service/queue_wait_ms", 1e6);
  (void)metrics_.histogram("service/e2e_ms", 1e6);
  (void)metrics_.histogram("service/device_ms", 1e6);
  if (obs::trace_enabled()) {
    obs::trace_set_thread_name(kDispatcherTid, "dispatcher");
    obs::trace_set_thread_name(kQueueTid, "queue");
  }
  workers_.reserve(cfg_.workers);
  for (std::uint32_t w = 0; w < cfg_.workers; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

ReductionService::~ReductionService() {
  std::vector<Pending> doomed;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
    for (auto& [name, t] : tenants_) {
      queued_ -= t.queue.size();
      for (Pending& p : t.queue) doomed.push_back(std::move(p));
      t.queue.clear();
    }
  }
  work_cv_.notify_all();
  for (Pending& p : doomed) {
    JobResult r;
    r.status = JobStatus::kRejected;
    r.job_id = p.id;
    r.tenant = p.spec.tenant;
    r.reject_reason = "service stopped before dispatch";
    settle(p, std::move(r), kDispatcherTid);
  }
  for (std::thread& t : workers_) t.join();
}

std::size_t ReductionService::estimate_bytes(const JobSpec& spec) {
  // The runner's own buffers (input, the parallel-work copy, results)
  // come from the case geometry it allocates from.
  const testsuite::CaseGeometry geo =
      testsuite::case_geometry(spec.kase.pos, spec.reduction_extent);
  const std::size_t copies =
      testsuite::parallel_copy(spec.kase.pos, runner_options(spec)) ? 2 : 1;
  // Worst-case strategy buffers: a full gang x worker x vector global
  // staging slab plus the finalize kernel's own staging. Overestimating
  // slightly keeps admission decisions a pure function of the spec (no
  // plan needed for a rejection).
  const std::size_t staging =
      std::size_t{spec.config.num_gangs} * spec.config.num_workers *
          spec.config.vector_length +
      acc::profile(spec.compiler).strategy.finalize_threads;
  return (geo.volume * copies + geo.out_slots + staging) *
         size_of(spec.kase.type);
}

std::uint64_t ReductionService::estimate_service_ns(const JobSpec& spec) {
  // ~200 bytes per virtual nanosecond (a K20c-class global-memory rate).
  // The dispatch clock only needs a plausible, spec-pure magnitude — the
  // telemetry timeline keeps the modeled truth.
  return std::max<std::uint64_t>(
      1000, static_cast<std::uint64_t>(estimate_bytes(spec)) / 200);
}

std::future<JobResult> ReductionService::submit(JobSpec spec) {
  // Shared, because std::function needs a copyable callable.
  auto promise = std::make_shared<std::promise<JobResult>>();
  std::future<JobResult> fut = promise->get_future();
  submit(std::move(spec),
         [promise](JobResult r) { promise->set_value(std::move(r)); });
  return fut;
}

void ReductionService::submit(JobSpec spec,
                              std::function<void(JobResult)> callback) {
  const bool tracing = obs::trace_enabled();
  const double submit_us = tracing ? obs::trace_now_us() : 0;
  Pending job;
  job.spec = std::move(spec);
  job.callback = std::move(callback);
  job.submitted_at = std::chrono::steady_clock::now();
  job.bytes = estimate_bytes(job.spec);
  std::string reason;
  const char* reject_kind = "";
  JobStatus reject_status = JobStatus::kRejected;
  {
    std::lock_guard<std::mutex> lk(mu_);
    Tenant& t = tenants_[job.spec.tenant];
    metrics_.counter("service/submitted").add();
    metrics_.counter("tenant/" + job.spec.tenant + "/submitted").add();
    // Half-open an open breaker whose virtual cooldown has elapsed. Read
    // against the timeline clock (vfinish_ns_): both sides advance only at
    // deterministic points, so at any quiescent submission the comparison
    // is a pure function of the traffic so far.
    if (cfg_.breaker_threshold > 0 && t.breaker == Breaker::kOpen &&
        vfinish_ns_ >= t.breaker_open_until_ns) {
      t.breaker = Breaker::kHalfOpen;
      t.probe_inflight = false;
    }
    if (stop_) {
      reason = "service stopped";
      reject_kind = "stopped";
      metrics_.counter("service/rejected_queue").add();
    } else if (cfg_.breaker_threshold > 0 &&
               (t.breaker == Breaker::kOpen ||
                (t.breaker == Breaker::kHalfOpen && t.probe_inflight))) {
      reason = t.breaker == Breaker::kOpen
                   ? "circuit breaker open for tenant '" + job.spec.tenant +
                         "' (cooling down)"
                   : "circuit breaker half-open for tenant '" +
                         job.spec.tenant + "' (probe in flight)";
      reject_kind = "breaker";
      reject_status = JobStatus::kCircuitOpen;
      metrics_.counter("service/rejected_breaker").add();
    } else if (open_jobs_ >= cfg_.queue_capacity) {
      reason = "occupancy budget exhausted: " + std::to_string(open_jobs_) +
               " open jobs at capacity " +
               std::to_string(cfg_.queue_capacity);
      reject_kind = "occupancy";
      metrics_.counter("service/rejected_queue").add();
    } else if (admitted_bytes_ + job.bytes > cfg_.memory_budget_bytes) {
      reason = "memory budget exhausted: job needs " +
               std::to_string(job.bytes) + " bytes, " +
               std::to_string(cfg_.memory_budget_bytes - admitted_bytes_) +
               " of " + std::to_string(cfg_.memory_budget_bytes) +
               " available";
      reject_kind = "memory";
      metrics_.counter("service/rejected_memory").add();
    }
    if (!reason.empty()) {
      metrics_.counter("tenant/" + job.spec.tenant + "/rejected").add();
    } else {
      ++open_jobs_;
      ++undelivered_;
      admitted_bytes_ += job.bytes;
      job.id = next_id_++;
      metrics_.counter("service/admitted").add();
      // The job's slot on the virtual timeline; ids are handed out here in
      // admission order, so slot index job.id - 1 == timeline_.size().
      VirtualSlot& slot = timeline_.emplace_back();
      slot.bytes = job.bytes;
      slot.tenant = job.spec.tenant;
      // Arrival on the dispatch clock, paced at the running mean of the
      // admitted estimates (the telemetry timeline's pacing rule, applied
      // to the estimate stream).
      job.est_ns = estimate_service_ns(job.spec);
      job.varrival_ns =
          dadmitted_ == 0 ? 0 : darrival_ns_ + dtotal_est_ns_ / dadmitted_;
      darrival_ns_ = job.varrival_ns;
      dtotal_est_ns_ += job.est_ns;
      ++dadmitted_;
      // A half-open breaker admits exactly one probe; mark it only now
      // that every admission check passed (a rejected probe would
      // otherwise leave probe_inflight latched forever).
      if (cfg_.breaker_threshold > 0 && t.breaker == Breaker::kHalfOpen) {
        t.probe_inflight = true;
        slot.probe = true;
      }
    }
  }
  if (!reason.empty()) {
    if (tracing) {
      obs::trace_complete("reject", kDispatcherTid, submit_us,
                          obs::trace_now_us() - submit_us, {},
                          {{"tenant", job.spec.tenant},
                           {"kind", reject_kind}});
    }
    JobResult rejected;
    rejected.status = reject_status;
    rejected.tenant = job.spec.tenant;
    rejected.reject_reason = std::move(reason);
    if (job.callback) job.callback(std::move(rejected));
    return;
  }

  // Plan after admission, so backpressured traffic never pays for
  // planning, and outside the service lock, so the pipeline doesn't stall
  // dispatch.
  const double plan_us = tracing ? obs::trace_now_us() : 0;
  try {
    job.plan = plan_job(job.spec);
  } catch (const std::exception& ex) {
    // A structured failure of the tenant's own submission: it settles as
    // kFailed, so it counts toward the tenant's breaker.
    JobResult r;
    r.status = JobStatus::kFailed;
    r.job_id = job.id;
    r.tenant = job.spec.tenant;
    r.outcome.detail = std::string("planning failed: ") + ex.what();
    settle(job, std::move(r), kDispatcherTid);
    return;
  }
  if (tracing) {
    obs::trace_complete("plan", kDispatcherTid, plan_us,
                        obs::trace_now_us() - plan_us,
                        {{"job", static_cast<double>(job.id)}},
                        {{"tenant", job.spec.tenant}});
  }

  const std::uint64_t id = job.id;
  const std::string tenant_name = job.spec.tenant;
  {
    std::lock_guard<std::mutex> lk(mu_);
    Tenant& t = tenants_[job.spec.tenant];
    if (t.queue.empty()) {
      // A tenant going idle must not bank credit: restart its virtual
      // clock at the global one (start-time fair queuing).
      t.pass = std::max(t.pass, virtual_time_);
    }
    job.enqueue_us = tracing ? obs::trace_now_us() : 0;
    t.queue.push_back(std::move(job));
    ++queued_;
  }
  if (tracing) {
    // The whole admission + planning journey on the dispatcher row.
    obs::trace_complete("submit", kDispatcherTid, submit_us,
                        obs::trace_now_us() - submit_us,
                        {{"job", static_cast<double>(id)}},
                        {{"tenant", tenant_name}});
  }
  work_cv_.notify_one();
}

void ReductionService::complete_virtual(std::uint64_t id, double device_ms,
                                        SlotVerdict verdict) {
  VirtualSlot& filled = timeline_[id - 1];
  filled.done = true;
  filled.device_ns = to_device_ns(device_ms);
  filled.verdict = verdict;
  // Consume every consecutive done slot in admission order. Completion
  // order (worker interleaving) only decides *when* the cursor catches up,
  // never what it records — that is the determinism contract.
  while (vcursor_ < timeline_.size() && timeline_[vcursor_].done) {
    VirtualSlot& s = timeline_[vcursor_];
    // Arrivals paced at the running mean device time: a saturating open
    // load (utilization 1), so queue waits express burstiness in the
    // device-time mix rather than collapsing to zero or diverging.
    const std::uint64_t arrival =
        vcursor_ == 0 ? 0
                      : varrival_ns_ + vtotal_device_ns_ /
                                           static_cast<std::uint64_t>(vcursor_);
    // Retire every job that departed before this arrival; what remains in
    // [vretire_, vcursor_) is the virtual queue this job joins.
    while (vretire_ < vcursor_ && timeline_[vretire_].finish_ns <= arrival) {
      vbytes_in_system_ -= timeline_[vretire_].bytes;
      ++vretire_;
    }
    const auto depth = static_cast<std::uint64_t>(vcursor_ - vretire_);
    metrics_.histogram("service/queue_depth").record_units(depth);
    metrics_.gauge("service/queue_depth_max")
        .max_of(static_cast<std::int64_t>(depth));
    vbytes_in_system_ += s.bytes;
    metrics_.gauge("service/inflight_bytes_max")
        .max_of(static_cast<std::int64_t>(vbytes_in_system_));
    // Lindley recursion: one virtual server, FIFO in admission order.
    const std::uint64_t start = std::max(arrival, vfinish_ns_);
    const std::uint64_t wait = start - arrival;
    s.finish_ns = start + s.device_ns;
    metrics_.histogram("service/queue_wait_ms", 1e6).record_units(wait);
    metrics_.histogram("service/e2e_ms", 1e6).record_units(wait + s.device_ns);
    metrics_.histogram("service/device_ms", 1e6).record_units(s.device_ns);
    const std::string prefix = "tenant/" + s.tenant + "/";
    metrics_.histogram(prefix + "queue_wait_ms", 1e6).record_units(wait);
    metrics_.histogram(prefix + "e2e_ms", 1e6).record_units(wait + s.device_ns);
    metrics_.histogram(prefix + "device_ms", 1e6).record_units(s.device_ns);
    vtotal_device_ns_ += s.device_ns;
    varrival_ns_ = arrival;
    vfinish_ns_ = s.finish_ns;
    // Breaker transitions happen here — at the cursor, in admission order
    // — never at the racy completion instant, so trips and closures are
    // bit-identical for any worker count (DESIGN.md §16).
    if (cfg_.breaker_threshold > 0) {
      Tenant& t = tenants_[s.tenant];
      const auto open_breaker = [&] {
        t.breaker = Breaker::kOpen;
        t.probe_inflight = false;
        t.consecutive_failures = 0;
        t.breaker_open_until_ns = s.finish_ns + cfg_.breaker_cooldown_ns;
        metrics_.counter("service/breaker_open_total").add();
        if (obs::trace_enabled()) {
          obs::trace_complete("breaker_open", kDispatcherTid,
                              obs::trace_now_us(), 0,
                              {{"until_virtual_ms",
                                static_cast<double>(t.breaker_open_until_ns) /
                                    1e6}},
                              {{"tenant", s.tenant}});
        }
      };
      switch (s.verdict) {
        case SlotVerdict::kFailed:
          ++t.consecutive_failures;
          if (s.probe) {
            open_breaker();  // failed probe: back to open, new cooldown
          } else if (t.breaker == Breaker::kClosed &&
                     t.consecutive_failures >= cfg_.breaker_threshold) {
            open_breaker();
          }
          break;
        case SlotVerdict::kOk:
          t.consecutive_failures = 0;
          if (s.probe) {
            t.breaker = Breaker::kClosed;
            t.probe_inflight = false;
            if (obs::trace_enabled()) {
              obs::trace_complete("breaker_close", kDispatcherTid,
                                  obs::trace_now_us(), 0, {},
                                  {{"tenant", s.tenant}});
            }
          }
          break;
        case SlotVerdict::kNeutral:
          // A probe that resolved without a verdict (cancelled, deadline,
          // shed) releases the half-open slot; the next submission probes.
          if (s.probe) t.probe_inflight = false;
          break;
      }
    }
    ++vcursor_;
  }
}

void ReductionService::worker_main(std::uint32_t worker_index) {
  if (obs::trace_enabled()) {
    obs::trace_set_thread_name(1000 + worker_index,
                               "worker-" + std::to_string(worker_index));
  }
  for (;;) {
    Pending job;
    // Resolution decided under the lock; delivery happens outside it.
    enum class Pick : std::uint8_t { kRun, kCancel, kDeadline } pick = Pick::kRun;
    std::uint64_t wait_ns = 0;
    bool have_victim = false;
    Pending victim;  // shed by this dispatch decision, if any
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] { return stop_ || (!paused_ && queued_ > 0); });
      if (queued_ == 0 || paused_) {
        if (stop_) return;
        continue;
      }
      // Weighted fair pick: the backlogged tenant with the smallest
      // virtual finish time runs next; ties break by tenant name (the map
      // iterates in name order), so dispatch is deterministic.
      Tenant* best = nullptr;
      for (auto& [name, t] : tenants_) {
        if (t.queue.empty()) continue;
        if (best == nullptr || t.pass < best->pass) best = &t;
      }
      job = std::move(best->queue.front());
      best->queue.pop_front();
      --queued_;
      virtual_time_ = best->pass;
      best->pass += 1.0 / best->weight;
      if (obs::trace_enabled()) {
        // Real (wall-clock) queue depth at dispatch — trace-only context,
        // deliberately not a gated metric.
        obs::trace_counter("queue_depth", static_cast<double>(queued_));
      }

      // Resolution order (DESIGN.md §16): cancellation first (the client
      // no longer wants the result, whatever its wait), then the deadline
      // (already expired: launching would only deliver a late answer),
      // then overload shedding and the retry grant for a job that will
      // actually run. All of it on the dispatch clock, under mu_, so the
      // decision sequence is a pure function of the queue contents.
      const std::uint64_t start = std::max(job.varrival_ns, dnow_ns_);
      wait_ns = start - job.varrival_ns;
      if (job.spec.cancel && job.spec.cancel->cancelled()) {
        pick = Pick::kCancel;  // consumes no virtual service time
      } else if (job.spec.deadline_ns > 0 &&
                 wait_ns > job.spec.deadline_ns) {
        pick = Pick::kDeadline;  // consumes no virtual service time
      } else {
        if (cfg_.shed_target_ns > 0) {
          // CoDel-style: shed only on *sustained* overload — the modeled
          // wait has stayed above target for an interval as long as the
          // target — and then one youngest-arrival job per dispatch, so a
          // transient burst rides the queue while a standing one drains
          // newest-first.
          if (wait_ns <= cfg_.shed_target_ns) {
            shed_first_above_ns_ = 0;
          } else if (shed_first_above_ns_ == 0) {
            shed_first_above_ns_ = start;
          } else if (start - shed_first_above_ns_ >= cfg_.shed_target_ns) {
            // Victim: the youngest virtual arrival still queued — the back
            // of the tenant queue holding the highest job id.
            Tenant* vt = nullptr;
            for (auto& [name, t] : tenants_) {
              if (t.queue.empty()) continue;
              if (vt == nullptr || t.queue.back().id > vt->queue.back().id) {
                vt = &t;
              }
            }
            if (vt != nullptr) {
              victim = std::move(vt->queue.back());
              vt->queue.pop_back();
              --queued_;
              have_victim = true;
            }
          }
        }
        if (cfg_.retry_budget_per_sec > 0) {
          // Refill the tenant's bucket to `start`, then debit this job's
          // grant. Debit-at-dispatch is the deterministic point; the
          // grant caps the guarded ladder via max_total_attempts.
          Tenant& t = tenants_[job.spec.tenant];
          const double burst = cfg_.retry_budget_burst > 0
                                   ? cfg_.retry_budget_burst
                                   : std::max(1.0, cfg_.retry_budget_per_sec);
          const auto burst_units = static_cast<std::uint64_t>(
              std::llround(burst * static_cast<double>(kTokenUnit)));
          if (!t.bucket_primed) {
            t.bucket_primed = true;
            t.bucket_units = burst_units;
            t.bucket_refill_ns = start;
          } else if (start > t.bucket_refill_ns) {
            t.bucket_units = std::min(
                burst_units,
                t.bucket_units + refill_units(cfg_.retry_budget_per_sec,
                                              start - t.bucket_refill_ns));
            t.bucket_refill_ns = start;
          }
          const std::uint64_t avail = t.bucket_units / kTokenUnit;
          const std::uint64_t grant =
              std::min<std::uint64_t>(avail, cfg_.retry_tokens_per_job);
          t.bucket_units -= grant * kTokenUnit;
          job.attempts_granted = static_cast<int>(grant) + 1;
          metrics_.gauge("tenant/" + job.spec.tenant + "/retry_budget_tokens")
              .set(static_cast<std::int64_t>(t.bucket_units / kTokenUnit));
        }
        // Serve: advance the virtual server by the estimate.
        dnow_ns_ = start + job.est_ns;
      }
    }
    if (have_victim) {
      resolve_unlaunched(std::move(victim), JobStatus::kShed,
                         "shed under sustained overload (modeled wait " +
                             std::to_string(wait_ns) + " ns above target " +
                             std::to_string(cfg_.shed_target_ns) + " ns)",
                         worker_index);
    }
    switch (pick) {
      case Pick::kRun:
        run_job(std::move(job), worker_index);
        break;
      case Pick::kCancel:
        resolve_unlaunched(std::move(job), JobStatus::kCancelled,
                           "cancelled by client while queued", worker_index);
        break;
      case Pick::kDeadline:
        resolve_unlaunched(std::move(job), JobStatus::kDeadlineExceeded,
                           "deadline exceeded before dispatch: modeled wait " +
                               std::to_string(wait_ns) + " ns > deadline " +
                               std::to_string(job.spec.deadline_ns) + " ns",
                           worker_index);
        break;
    }
  }
}

void ReductionService::resolve_unlaunched(Pending job, JobStatus status,
                                          std::string reason,
                                          std::uint32_t worker_index) {
  JobResult r;
  r.status = status;
  r.job_id = job.id;
  r.tenant = job.spec.tenant;
  r.reject_reason = std::move(reason);
  r.queue_ms = ms_since(job.submitted_at);
  r.service_ms = r.queue_ms;  // never ran: service time is the queue time
  if (obs::trace_enabled()) {
    // Lifecycle span on the queue row: the whole queued life of a job the
    // dispatcher resolved without launching.
    const char* kind = status == JobStatus::kCancelled ? "cancel"
                       : status == JobStatus::kShed    ? "shed"
                                                       : "deadline";
    obs::trace_complete(kind, kQueueTid, job.enqueue_us,
                        obs::trace_now_us() - job.enqueue_us,
                        {{"job", static_cast<double>(job.id)}},
                        {{"tenant", job.spec.tenant}});
  }
  settle(job, std::move(r), 1000 + worker_index);
}

void ReductionService::run_job(Pending job, std::uint32_t worker_index) {
  const bool tracing = obs::trace_enabled();
  const double t0_us = tracing ? obs::trace_now_us() : 0;
  if (tracing) {
    // Time spent waiting in the WFQ queue, on the synthetic queue row.
    obs::trace_complete("queued", kQueueTid, job.enqueue_us,
                        t0_us - job.enqueue_us,
                        {{"job", static_cast<double>(job.id)}},
                        {{"tenant", job.spec.tenant}});
  }

  JobResult r;
  r.job_id = job.id;
  r.tenant = job.spec.tenant;
  r.queue_ms = ms_since(job.submitted_at);

  testsuite::RunnerOptions opts = runner_options(job.spec);
  opts.guard.max_degrade_rungs = cfg_.max_degrade_rungs;
  // Retry-budget grant from the dispatch decision: 0 when the budget is
  // off (ladder bounds attempts), else 1 + the tokens taken.
  opts.guard.max_total_attempts = job.attempts_granted;
  testsuite::Runner runner(opts);
  try {
    r.outcome = runner.run_planned(job.spec.compiler, job.spec.kase, job.plan);
  } catch (const std::exception& ex) {
    r.outcome.verified = false;
    r.outcome.detail = std::string("execution failed: ") + ex.what();
  }
  const bool was_cancelled =
      !r.outcome.verified &&
      r.outcome.stats.error.code == gpusim::LaunchErrorCode::kCancelled;
  r.status = r.outcome.verified  ? JobStatus::kOk
             : was_cancelled     ? JobStatus::kCancelled
                                 : JobStatus::kFailed;
  r.service_ms = ms_since(job.submitted_at);

  if (tracing) {
    obs::trace_complete(
        "execute", 1000 + worker_index, t0_us, obs::trace_now_us() - t0_us,
        {{"job", static_cast<double>(job.id)},
         {"device_ms", r.outcome.device_ms},
         {"ok", r.status == JobStatus::kOk ? 1.0 : 0.0}},
        {{"tenant", job.spec.tenant}});
  }
  settle(job, std::move(r), 1000 + worker_index);
}

void ReductionService::settle(Pending& job, JobResult result,
                              std::uint32_t tid) {
  // Book the end — budget, counters, timeline slot — before delivering
  // it: a client that just resolved this job's future must already see it
  // in stats(), and one that paces submissions on completions must find
  // the budget slot free.
  {
    std::lock_guard<std::mutex> lk(mu_);
    --open_jobs_;
    admitted_bytes_ -= job.bytes;
    metrics_.counter(settled_counter(result.status)).add();
    if (result.status == JobStatus::kOk) {
      if (result.outcome.recovered) metrics_.counter("service/recovered").add();
      if (result.outcome.degraded) metrics_.counter("service/degraded").add();
    }
    metrics_
        .counter("tenant/" + job.spec.tenant +
                 (result.status == JobStatus::kRejected ? "/rejected"
                                                        : "/completed"))
        .add();
    // Only a failure of the tenant's own job — ladder exhausted, planning
    // failed — counts toward its breaker. Cancelled, deadline-exceeded,
    // shed and stopped jobs say nothing about the tenant's health. A job
    // that never ran fills its slot with zero device time, or the cursor
    // would stall behind it forever.
    const SlotVerdict verdict = result.status == JobStatus::kOk
                                    ? SlotVerdict::kOk
                                : result.status == JobStatus::kFailed
                                    ? SlotVerdict::kFailed
                                    : SlotVerdict::kNeutral;
    complete_virtual(job.id, result.outcome.device_ms, verdict);
  }
  const bool tracing = obs::trace_enabled();
  const double deliver_us = tracing ? obs::trace_now_us() : 0;
  if (job.callback) job.callback(std::move(result));
  if (tracing) {
    obs::trace_complete("deliver", tid, deliver_us,
                        obs::trace_now_us() - deliver_us,
                        {{"job", static_cast<double>(job.id)}},
                        {{"tenant", job.spec.tenant}});
  }
  // Only the drain() signal waits for the callback: drain() returning
  // means every future is ready and every callback has run.
  std::lock_guard<std::mutex> lk(mu_);
  if (--undelivered_ == 0) idle_cv_.notify_all();
}

void ReductionService::pause() {
  std::lock_guard<std::mutex> lk(mu_);
  paused_ = true;
}

void ReductionService::resume() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void ReductionService::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [&] { return undelivered_ == 0; });
}

std::uint64_t ReductionService::drain(std::chrono::nanoseconds timeout) {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait_for(lk, timeout, [&] { return undelivered_ == 0; });
  return undelivered_;
}

ServiceStats ReductionService::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  ServiceStats s;
  for (const auto& [name, field] : kServiceCounters) {
    s.*field = counted(metrics_, name);
  }
  s.queued = queued_;
  s.inflight = open_jobs_ - queued_;
  s.admitted_bytes = admitted_bytes_;
  return s;
}

obs::Json ReductionService::metrics_json() const { return metrics_.to_json(); }

std::map<std::string, TenantStats> ReductionService::tenant_stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<std::string, TenantStats> out;
  for (const auto& [name, t] : tenants_) {
    const std::string prefix = "tenant/" + name + "/";
    TenantStats& s = out[name];
    s.weight = t.weight;
    s.submitted = counted(metrics_, prefix + "submitted");
    s.rejected = counted(metrics_, prefix + "rejected");
    s.completed = counted(metrics_, prefix + "completed");
  }
  return out;
}

}  // namespace accred::service
