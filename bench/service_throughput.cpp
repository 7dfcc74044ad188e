// Service-throughput harness: drives the reduction service (DESIGN.md §13)
// with an open-loop multi-tenant workload sampled over the Table 2 grid
// and reports throughput, latency, and admission behavior as a schema-v3
// accred.bench record — the record CI gates (BENCH_service.json).
//
// Latency percentiles come from the service's telemetry registry
// (DESIGN.md §14): modeled device time plus the virtual-timeline queue
// wait and end-to-end latency, all bit-deterministic for any --workers
// and --sim-threads. The throughput entry also carries the full registry
// dump as its "telemetry" section.
//
// Three phases, each its own service instance:
//   throughput  N jobs over a weighted tenant mix; the driver submits from
//               one thread and caps its own in-flight window below the
//               service's occupancy budget, so every gated counter
//               (completed, rejections, modeled device_ms percentiles)
//               is bit-deterministic for any --sim-threads and any
//               worker count. Wall-clock latency/throughput land
//               in wall_* metrics (never gated).
//   admission   a paused service with a tiny occupancy budget, then one
//               with a three-job memory budget: exact deterministic
//               rejected_queue / rejected_memory counts.
//   faults      (with --faults SPEC) one tenant runs the campaign; the
//               record reports the victim's recovery ladder counters and a
//               checksum over the clean tenants' result hashes
//               (tests/service/test_service.cpp pins bit-identity).
//
// Exits 1 if any throughput-phase job fails, with or without --faults: a
// failed clean-tenant job breaks fault isolation, and a failed victim job
// is one the recovery ladder did not save.
//
// Flags:
//   --jobs N           throughput-phase submissions (default 2500)
//   --r N              base reduction extent (default 256); jobs sample
//                      {r, 2r}
//   --tenants SPEC     name[:weight],... (default alice:3,bob:2,carol:1);
//                      weights are finite numbers above 0, default 1
//   --workers N        service executor threads (default 2)
//   --rate R           open-loop arrivals/sec, exponential inter-arrival
//                      times (0 = submit back-to-back; wall metrics only)
//   --seed N           workload sampling seed (default 42)
//   --queue-capacity N occupancy budget override (0 = device default)
//   --window N         driver in-flight cap, at least 1 (default 128; never
//                      above the occupancy budget)
//   --faults SPEC      arm SPEC (faultinject.hpp grammar) on the "mallory"
//                      tenant's jobs only
//   --sim-threads N    host threads per kernel launch (results identical)
//   --json FILE        write the accred.bench record
//   --trace FILE       chrome://tracing export (lifecycle spans per job,
//                      named worker/dispatcher/queue rows)
#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <iostream>
#include <map>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "service/service.hpp"
#include "util/main_guard.hpp"
#include "util/rng.hpp"

namespace {

using namespace accred;

struct TenantMix {
  std::vector<service::TenantConfig> tenants;
  double total_weight = 0;
};

/// --tenants name[:weight],...: at least one tenant, every name
/// non-empty, every weight a finite number above 0 (a bare name keeps
/// weight 1). Anything else is a usage error naming the flag.
TenantMix parse_tenants(const std::string& spec) {
  const auto bad = [](const std::string& why) {
    return std::invalid_argument("--tenants: " + why);
  };
  TenantMix mix;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string part =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? spec.size() : comma + 1;
    if (part.empty()) continue;
    const std::size_t colon = part.find(':');
    service::TenantConfig t;
    t.name = part.substr(0, colon);
    if (t.name.empty()) throw bad("empty tenant name in \"" + part + "\"");
    if (colon != std::string::npos) {
      const std::string w = part.substr(colon + 1);
      const char* end = w.data() + w.size();
      const auto [stop, ec] = std::from_chars(w.data(), end, t.weight);
      if (ec != std::errc{} || stop != end || !std::isfinite(t.weight) ||
          t.weight <= 0) {
        throw bad("weight of tenant \"" + t.name +
                  "\" must be a finite number above 0, got \"" + w + "\"");
      }
    }
    mix.total_weight += t.weight;
    mix.tenants.push_back(std::move(t));
  }
  if (mix.tenants.empty()) {
    throw bad("expected at least one name[:weight], got \"" + spec + "\"");
  }
  if (!std::isfinite(mix.total_weight)) {
    throw bad("weights sum past the largest double in \"" + spec + "\"");
  }
  return mix;
}

/// Deterministic workload sampler: tenant by weight, compiler biased
/// toward OpenUH, a Table 2 cell that the chosen compiler handles cleanly
/// (robustness Ok — keeps completed == submitted exact), extent in
/// {r, 2r}. Pure function of (seed, i).
class WorkloadSampler {
public:
  WorkloadSampler(const TenantMix& mix, std::int64_t r, std::uint64_t seed)
      : mix_(mix), r_(r), rng_(seed), grid_(testsuite::table2_grid()) {}

  service::JobSpec next() {
    service::JobSpec job;
    double pick = rng_.next_unit() * mix_.total_weight;
    job.tenant = mix_.tenants.back().name;
    for (const service::TenantConfig& t : mix_.tenants) {
      if (pick < t.weight) {
        job.tenant = t.name;
        break;
      }
      pick -= t.weight;
    }
    static constexpr acc::CompilerId kCompilers[] = {
        acc::CompilerId::kOpenUH, acc::CompilerId::kOpenUH,
        acc::CompilerId::kPgiLike, acc::CompilerId::kCapsLike};
    job.compiler = kCompilers[rng_.next_below(4)];
    for (;;) {
      const testsuite::CaseSpec& spec = grid_[rng_.next_below(grid_.size())];
      if (acc::table2_robustness(job.compiler, spec.pos, spec.op,
                                 spec.type) == acc::Robustness::kOk) {
        job.kase = spec;
        break;
      }
    }
    job.reduction_extent = r_ << (rng_.next() & 1);
    // Service jobs run on a small launch geometry: simulation cost scales
    // with threads-per-launch, and a saturation harness wants thousands of
    // cheap jobs rather than hundreds of paper-scale ones.
    job.config = acc::LaunchConfig{24, 4, 64};
    return job;
  }

  [[nodiscard]] util::SplitMix64& rng() { return rng_; }

private:
  const TenantMix& mix_;
  std::int64_t r_;
  util::SplitMix64 rng_;
  std::vector<testsuite::CaseSpec> grid_;
};

/// p50/p99 of a service histogram (0 when the metric is absent).
struct P5099 {
  double p50 = 0;
  double p99 = 0;
};

P5099 hist_percentiles(const obs::MetricsRegistry& reg,
                       const std::string& name) {
  const obs::Histogram* h = reg.find_histogram(name);
  if (!h) return {};
  return {h->percentile(0.50), h->percentile(0.99)};
}

int run(const util::Cli& cli, obs::RunRecord& record) {
  const std::size_t jobs = cli.get_uint32("jobs", 2500);
  const std::int64_t r = cli.get_int("r", 256);
  const std::uint32_t workers = cli.get_uint32("workers", 2);
  const double rate = cli.get_double("rate", 0.0);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const std::string faults = cli.get("faults", "");
  const std::uint32_t window_cap = cli.get_uint32("window", 128);
  if (window_cap == 0) {
    throw std::invalid_argument("--window: expected at least 1, got 0");
  }

  TenantMix mix = parse_tenants(cli.get("tenants", "alice:3,bob:2,carol:1"));
  if (!faults.empty()) {
    service::TenantConfig mallory;
    mallory.name = "mallory";
    mix.total_weight += mallory.weight;
    mix.tenants.push_back(std::move(mallory));
  }

  service::ServiceConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = cli.get_uint32("queue-capacity", 0);

  // ---- Phase 1: throughput ------------------------------------------
  std::vector<service::JobResult> results;
  double wall_ms = 0;
  std::map<std::string, service::TenantStats> tenant_stats;
  service::ServiceStats stats;
  std::size_t capacity = 0;
  // Snapshots of the service's telemetry registry, taken at the drained
  // (quiescent) point before the service is torn down: the full dump for
  // the record's "telemetry" section, and the gated virtual-timeline
  // percentiles (DESIGN.md §14 — identical for any workers/sim-threads).
  obs::Json telemetry = obs::Json::object();
  P5099 device_p, queue_wait_p, e2e_p;
  std::map<std::string, std::array<P5099, 3>> tenant_p;  // qw, e2e, device
  {
    service::ReductionService svc(cfg, mix.tenants);
    // Keep the driver's own in-flight window below the occupancy budget:
    // with one submitting thread this guarantees zero backpressure
    // rejections, which keeps every admission counter deterministic.
    capacity = svc.config().queue_capacity;
    const std::size_t window = std::min<std::size_t>(window_cap, capacity);
    WorkloadSampler sampler(mix, r, seed);

    std::vector<std::future<service::JobResult>> futs;
    futs.reserve(jobs);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < jobs; ++i) {
      service::JobSpec job = sampler.next();
      if (!faults.empty() && job.tenant == "mallory") job.faults = faults;
      if (rate > 0) {
        const double gap_s = -std::log(1.0 - sampler.rng().next_unit()) / rate;
        std::this_thread::sleep_for(std::chrono::duration<double>(gap_s));
      }
      if (i >= window) futs[i - window].wait();
      futs.push_back(svc.submit(std::move(job)));
    }
    svc.drain();
    wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    results.reserve(jobs);
    for (auto& f : futs) results.push_back(f.get());
    stats = svc.stats();
    tenant_stats = svc.tenant_stats();
    telemetry = svc.metrics_json();
    device_p = hist_percentiles(svc.metrics(), "service/device_ms");
    queue_wait_p = hist_percentiles(svc.metrics(), "service/queue_wait_ms");
    e2e_p = hist_percentiles(svc.metrics(), "service/e2e_ms");
    for (const auto& [name, t] : tenant_stats) {
      (void)t;
      tenant_p[name] = {
          hist_percentiles(svc.metrics(), "tenant/" + name + "/queue_wait_ms"),
          hist_percentiles(svc.metrics(), "tenant/" + name + "/e2e_ms"),
          hist_percentiles(svc.metrics(), "tenant/" + name + "/device_ms")};
    }
  }

  std::size_t clean_failed = 0;
  double device_ms_total = 0;
  // Wall-clock latency distributions go through the same histogram type as
  // the gated metrics (same bucketing, ns units) but stay wall_*: the
  // values depend on host scheduling and are never gated.
  obs::Histogram wall_service_ms(1e6), wall_queue_ms(1e6);
  std::uint64_t clean_checksum = 1469598103934665603ULL;
  std::size_t victim_recovered = 0, victim_degraded = 0, victim_failed = 0,
              victim_jobs = 0;
  for (const service::JobResult& res : results) {
    const bool victim = res.tenant == "mallory";
    device_ms_total += res.outcome.device_ms;
    wall_service_ms.record(res.service_ms);
    wall_queue_ms.record(res.queue_ms);
    if (victim) {
      ++victim_jobs;
      if (res.outcome.recovered) ++victim_recovered;
      if (res.outcome.degraded) ++victim_degraded;
      if (res.status != service::JobStatus::kOk) ++victim_failed;
    } else {
      if (res.status != service::JobStatus::kOk) ++clean_failed;
      // FNV-1a fold over clean tenants' result hashes, in submission
      // order: bit-identical whether or not a victim campaign ran
      // alongside (fault isolation), and for any --sim-threads.
      for (int b = 0; b < 8; ++b) {
        clean_checksum ^= (res.outcome.result_hash >> (8 * b)) & 0xff;
        clean_checksum *= 1099511628211ULL;
      }
    }
  }

  std::cout << "== service throughput ==\n"
            << "jobs " << jobs << "  completed " << stats.completed
            << "  failed " << stats.failed << "  workers " << workers
            << "  occupancy capacity " << capacity << "\n"
            << "device p50 " << device_p.p50 << " ms  p99 " << device_p.p99
            << " ms  total " << device_ms_total << " ms\n"
            << "virtual timeline: queue wait p50 " << queue_wait_p.p50
            << " ms  p99 " << queue_wait_p.p99 << " ms  e2e p50 "
            << e2e_p.p50 << " ms  p99 " << e2e_p.p99 << " ms\n"
            << "wall " << wall_ms / 1000.0 << " s  ("
            << 1000.0 * static_cast<double>(results.size()) / wall_ms
            << " jobs/s)  latency p50 " << wall_service_ms.percentile(0.50)
            << " ms  p99 " << wall_service_ms.percentile(0.99) << " ms\n";
  for (const auto& [name, t] : tenant_stats) {
    std::cout << "  tenant " << name << " (w=" << t.weight << "): "
              << t.submitted << " submitted, " << t.completed
              << " completed, " << t.rejected << " rejected\n";
  }

  auto& tp = record.entry("throughput");
  tp.metric("jobs", static_cast<double>(jobs))
      .metric("completed", static_cast<double>(stats.completed))
      .metric("failed", static_cast<double>(stats.failed))
      .metric("recovered", static_cast<double>(stats.recovered))
      .metric("degraded", static_cast<double>(stats.degraded))
      .metric("rejected_queue", static_cast<double>(stats.rejected_queue))
      .metric("rejected_memory", static_cast<double>(stats.rejected_memory))
      .metric("device_ms_total", device_ms_total)
      .metric("device_p50_ms", device_p.p50)
      .metric("device_p99_ms", device_p.p99)
      .metric("queue_wait_p50_ms", queue_wait_p.p50)
      .metric("queue_wait_p99_ms", queue_wait_p.p99)
      .metric("e2e_p50_ms", e2e_p.p50)
      .metric("e2e_p99_ms", e2e_p.p99)
      .metric("wall_ms", wall_ms)
      .metric("wall_jobs_per_sec",
              wall_ms > 0
                  ? 1000.0 * static_cast<double>(results.size()) / wall_ms
                  : 0)
      .metric("wall_p50_ms", wall_service_ms.percentile(0.50))
      .metric("wall_p99_ms", wall_service_ms.percentile(0.99))
      .metric("wall_queue_p50_ms", wall_queue_ms.percentile(0.50));
  tp.telemetry(std::move(telemetry));
  for (const auto& [name, t] : tenant_stats) {
    const std::array<P5099, 3>& p = tenant_p[name];
    record.entry("tenant/" + name)
        .metric("weight", t.weight)
        .metric("submitted", static_cast<double>(t.submitted))
        .metric("completed", static_cast<double>(t.completed))
        .metric("rejected", static_cast<double>(t.rejected))
        .metric("queue_wait_p50_ms", p[0].p50)
        .metric("e2e_p50_ms", p[1].p50)
        .metric("e2e_p99_ms", p[1].p99)
        .metric("device_p50_ms", p[2].p50);
  }

  // ---- Phase 2: admission control -----------------------------------
  // Deterministic by construction: dispatch paused, one submitting
  // thread, fixed budgets — exact rejection counts, every time.
  {
    service::ServiceConfig acfg;
    acfg.workers = workers;
    acfg.queue_capacity = 64;
    acfg.start_paused = true;
    service::ReductionService svc(acfg);
    service::JobSpec probe;
    probe.kase = {acc::Position::kGang, acc::ReductionOp::kSum,
                  acc::DataType::kInt32};
    probe.reduction_extent = r;
    std::vector<std::future<service::JobResult>> futs;
    futs.reserve(96);
    for (int i = 0; i < 96; ++i) futs.push_back(svc.submit(probe));
    const service::ServiceStats paused = svc.stats();
    svc.resume();
    svc.drain();
    const service::ServiceStats done = svc.stats();
    std::size_t delivered_rejections = 0;
    for (auto& f : futs) {
      if (f.get().status == service::JobStatus::kRejected) {
        ++delivered_rejections;
      }
    }
    std::cout << "\n== admission (occupancy budget " << acfg.queue_capacity
              << ") ==\n"
              << "submitted 96: admitted " << paused.admitted
              << ", rejected " << paused.rejected_queue << " (backpressure), "
              << done.completed << " completed after resume\n";
    record.entry("admission/occupancy")
        .metric("queue_capacity", static_cast<double>(acfg.queue_capacity))
        .metric("submitted", static_cast<double>(paused.submitted))
        .metric("admitted", static_cast<double>(paused.admitted))
        .metric("rejected_queue", static_cast<double>(paused.rejected_queue))
        .metric("delivered_rejections",
                static_cast<double>(delivered_rejections))
        .metric("completed", static_cast<double>(done.completed));
  }
  {
    service::JobSpec probe;
    probe.kase = {acc::Position::kGang, acc::ReductionOp::kSum,
                  acc::DataType::kInt32};
    probe.reduction_extent = r;
    const std::size_t job_bytes = service::ReductionService::estimate_bytes(probe);
    service::ServiceConfig mcfg;
    mcfg.workers = workers;
    mcfg.memory_budget_bytes = 3 * job_bytes;
    mcfg.start_paused = true;
    service::ReductionService svc(mcfg);
    for (int i = 0; i < 5; ++i) {
      (void)svc.submit(probe, [](service::JobResult) {});
    }
    const service::ServiceStats paused = svc.stats();
    svc.resume();
    svc.drain();
    std::cout << "== admission (memory budget 3 jobs = "
              << mcfg.memory_budget_bytes << " bytes) ==\n"
              << "submitted 5: admitted " << paused.admitted << ", rejected "
              << paused.rejected_memory << " (memory)\n";
    record.entry("admission/memory")
        .metric("job_bytes", static_cast<double>(job_bytes))
        .metric("submitted", static_cast<double>(paused.submitted))
        .metric("admitted", static_cast<double>(paused.admitted))
        .metric("rejected_memory",
                static_cast<double>(paused.rejected_memory));
  }

  if (!faults.empty()) {
    std::cout << "== fault campaign (tenant mallory: " << faults << ") ==\n"
              << "victim jobs " << victim_jobs << ": " << victim_recovered
              << " recovered, " << victim_degraded << " degraded, "
              << victim_failed << " failed\n";
    record.meta("faults", faults);
    record.entry("faults")
        .metric("victim_jobs", static_cast<double>(victim_jobs))
        .metric("victim_recovered", static_cast<double>(victim_recovered))
        .metric("victim_degraded", static_cast<double>(victim_degraded))
        .metric("victim_failed", static_cast<double>(victim_failed));
  }
  {
    char hex[19];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(clean_checksum));
    std::cout << "clean-tenant result checksum " << hex << "\n"
              << "failed jobs: " << clean_failed << " clean-tenant, "
              << victim_failed << " victim\n";
    record.entry("throughput").attr("clean_checksum", hex);
  }

  record.meta("jobs", static_cast<std::int64_t>(jobs));
  record.meta("reduction_extent", r);
  record.meta("workers", static_cast<std::int64_t>(workers));
  record.meta("seed", static_cast<std::int64_t>(seed));
  record.meta("tenants", cli.get("tenants", "alice:3,bob:2,carol:1"));
  if (rate > 0) record.meta("rate", rate);

  // Every job must complete: a failed clean-tenant job breaks fault
  // isolation, and a failed victim job is one the ladder did not recover.
  return clean_failed == 0 && victim_failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return util::tool_main(argc, argv, "service_throughput", {},
                         {"jobs", "r", "workers", "rate", "seed", "tenants",
                          "window", "queue-capacity", "faults"},
                         run);
}
