// Deterministic chaos campaign over the reduction service's resilience
// layer (DESIGN.md §16): a scripted multi-tenant schedule of sticky
// faults, deadlines, queued and mid-flight cancellations, a breaker
// trip/probe/close cycle, and an overload burst — every decision on the
// service's virtual clocks, so the whole record (counters, checksums,
// telemetry registry) is bit-identical for any --workers and any
// --sim-threads.
//
// The campaign runs as waves against a paused service: pause -> submit the
// wave -> resume -> bounded drain. At each quiescent point the dispatch
// decisions are a pure function of the queue contents, which is what makes
// "the breaker opens exactly twice" an assertable fact rather than a
// statistical one.
//
//   wave 1  trip      two sticky-fault mallory jobs between clean traffic:
//                     the second consecutive structured failure opens the
//                     tenant's breaker (threshold 2)
//   wave 2  reopen    mallory probes the half-open breaker with another
//                     faulty job (reopen; breaker_opens = 2) while a second
//                     mallory submission fast-fails kCircuitOpen
//   wave 3  close     a clean mallory probe closes the breaker
//   wave 4  recovered mallory runs normally again
//   wave 5  cancel-q  a carol job is cancelled while still queued
//   wave 6  cancel-r  a carol job is cancelled mid-flight via
//                     CancelToken::cancel_at_launch (structured kCancelled)
//   wave 7  cancel-d  cancelling after delivery is a no-op
//   wave 8  deadline  three oversized dana jobs inflate the dispatch clock;
//                     a tight-deadline dana job behind them expires
//
// A second service instance ("shed") with CoDel shedding enabled takes a
// small-then-burst single-tenant schedule; sustained modeled wait above
// target sheds the youngest queued jobs (kShed). A third, plain instance
// replays only the clean alice/bob jobs: tools/chaos_report asserts the
// chaos run's clean-tenant checksum equals this baseline bit-for-bit.
//
// Flags:
//   --r N            base reduction extent (default 256; bursts use 64r)
//   --workers N      service executor threads (default 2)
//   --sim-threads N  host threads per kernel launch (results identical)
//   --metrics        attach both telemetry registries to the record
//   --json FILE      write the accred.bench record (chaos_report input)
//   --trace FILE     chrome://tracing export (breaker / cancel / shed spans)
#include <chrono>
#include <cstdio>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/pool.hpp"
#include "obs/record.hpp"
#include "service/service.hpp"
#include "util/cli.hpp"
#include "util/main_guard.hpp"

namespace {

using namespace accred;

/// Sticky mid-kernel abort: fires on every guarded attempt (stripping only
/// removes non-sticky faults), so a mallory job fails structured no matter
/// how far the degradation ladder walks.
constexpr const char* kStickyFault = "warp_abort:block=0,nth=10,sticky";

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fold_hash(std::uint64_t& checksum, std::uint64_t hash) {
  for (int b = 0; b < 8; ++b) {
    checksum ^= (hash >> (8 * b)) & 0xff;
    checksum *= kFnvPrime;
  }
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

service::JobSpec clean_job(const std::string& tenant, std::int64_t extent) {
  service::JobSpec job;
  job.tenant = tenant;
  job.kase = {acc::Position::kGang, acc::ReductionOp::kSum,
              acc::DataType::kInt32};
  job.reduction_extent = extent;
  job.config = acc::LaunchConfig{24, 4, 64};
  return job;
}

/// One submitted job we still hold the future (and intent) for.
struct Tracked {
  std::string tenant;
  bool faulty = false;  ///< carries the sticky campaign
  std::future<service::JobResult> fut;
};

class Campaign {
 public:
  explicit Campaign(service::ReductionService& svc) : svc_(svc) {}

  void submit(service::JobSpec job) {
    Tracked t;
    t.tenant = job.tenant;
    t.faulty = !job.faults.empty();
    t.fut = svc_.submit(std::move(job));
    jobs_.push_back(std::move(t));
  }

  /// resume -> bounded drain -> pause. Returns jobs still open at the
  /// timeout (0 on a healthy service); stops the campaign on a hang so the
  /// record carries the liveness failure instead of the bench hanging.
  std::uint64_t run_wave() {
    svc_.resume();
    const std::uint64_t left = svc_.drain(std::chrono::seconds(120));
    svc_.pause();
    return left;
  }

  std::vector<Tracked>& jobs() { return jobs_; }

 private:
  service::ReductionService& svc_;
  std::vector<Tracked> jobs_;
};

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"metrics"});
  gpusim::set_default_sim_threads(cli.get_uint32("sim-threads", 0));
  obs::Session obs(cli, "service_chaos");

  const std::int64_t r = cli.get_int("r", 256);
  const std::int64_t big_r = r * 64;
  const std::uint32_t workers = cli.get_uint32("workers", 2);
  const bool metrics_on =
      cli.get_bool("metrics", false) || obs::metrics_env_default();

  // ---- Chaos service: breaker + budget + deadlines + cancellation ----
  std::uint64_t undrained = 0;
  service::ServiceStats stats;
  std::uint64_t clean_checksum = kFnvOffset;
  std::size_t victim_unstructured = 0;
  std::uint64_t victim_attempts = 0;
  obs::Json chaos_telemetry = obs::Json::object();
  // The clean alice/bob specs, in submission order, for the baseline replay.
  std::vector<service::JobSpec> clean_replay;
  {
    service::ServiceConfig cfg;
    cfg.workers = workers;
    cfg.start_paused = true;
    cfg.breaker_threshold = 2;
    // Virtual cooldown of 1 ns: any clean job consumed after the tripping
    // slot advances the timeline past open_until, so the next mallory
    // submission finds the breaker half-open — the wave schedule below
    // always places clean traffic after mallory's failures.
    cfg.breaker_cooldown_ns = 1;
    cfg.retry_budget_per_sec = 50'000;
    cfg.retry_budget_burst = 4;
    cfg.retry_tokens_per_job = 2;
    cfg.max_degrade_rungs = 2;
    service::ReductionService svc(
        cfg, {{"alice", 2.0}, {"bob", 2.0}, {"carol", 1.0}, {"dana", 1.0},
              {"mallory", 1.0}});
    Campaign camp(svc);
    const auto clean = [&](const std::string& tenant) {
      service::JobSpec job = clean_job(tenant, r);
      if (tenant == "alice" || tenant == "bob") clean_replay.push_back(job);
      camp.submit(std::move(job));
    };
    const auto faulty = [&] {
      service::JobSpec job = clean_job("mallory", r);
      job.faults = kStickyFault;
      camp.submit(std::move(job));
    };

    // Wave 1 — trip: two consecutive mallory failures open the breaker.
    clean("alice");
    clean("bob");
    faulty();
    faulty();
    clean("alice");
    clean("bob");
    undrained += camp.run_wave();

    // Wave 2 — reopen: the half-open probe fails (breaker_opens = 2); a
    // second mallory submission behind the in-flight probe fast-fails.
    faulty();
    camp.submit(clean_job("mallory", r));  // expect kCircuitOpen
    clean("alice");
    clean("bob");
    undrained += camp.run_wave();

    // Wave 3 — close: a clean probe closes the breaker.
    clean("mallory");
    clean("alice");
    clean("bob");
    undrained += camp.run_wave();

    // Wave 4 — recovered: mallory is a normal tenant again.
    clean("mallory");
    clean("alice");
    clean("bob");
    undrained += camp.run_wave();

    // Wave 5 — cancel while queued: the token flips before dispatch runs.
    auto queued_token = std::make_shared<gpusim::CancelToken>();
    clean("alice");
    {
      service::JobSpec job = clean_job("carol", r);
      job.cancel = queued_token;
      camp.submit(std::move(job));
    }
    clean("bob");
    queued_token->cancel();  // service still paused: deterministic
    undrained += camp.run_wave();

    // Wave 6 — cancel mid-flight: the countdown cancels at the first
    // kernel-launch entry, so the running job ends structured kCancelled.
    auto midrun_token = std::make_shared<gpusim::CancelToken>();
    midrun_token->cancel_at_launch(1);
    {
      service::JobSpec job = clean_job("carol", r);
      job.cancel = midrun_token;
      camp.submit(std::move(job));
    }
    clean("alice");
    undrained += camp.run_wave();

    // Wave 7 — cancel after delivery: a no-op on a completed job.
    auto late_token = std::make_shared<gpusim::CancelToken>();
    {
      service::JobSpec job = clean_job("carol", r);
      job.cancel = late_token;
      camp.submit(std::move(job));
    }
    undrained += camp.run_wave();
    late_token->cancel();

    // Wave 8 — deadline: three oversized dana jobs inflate the dispatch
    // clock; the tight-deadline job queued behind them (FIFO within the
    // tenant) expires before dispatch.
    camp.submit(clean_job("dana", big_r));
    camp.submit(clean_job("dana", big_r));
    camp.submit(clean_job("dana", big_r));
    {
      service::JobSpec job = clean_job("dana", r);
      job.deadline_ns = 1;
      camp.submit(std::move(job));
    }
    undrained += camp.run_wave();

    stats = svc.stats();
    chaos_telemetry = svc.metrics_json();
    if (undrained == 0) {
      for (Tracked& t : camp.jobs()) {
        service::JobResult res = t.fut.get();
        if (t.tenant == "alice" || t.tenant == "bob") {
          fold_hash(clean_checksum, res.outcome.result_hash);
        }
        if (t.faulty) {
          victim_attempts += static_cast<std::uint64_t>(res.outcome.attempts);
          // A fired fault must end structured: a LaunchError in the stats
          // or an explicit diagnostic — silent corruption is the one
          // unacceptable verdict.
          const bool structured =
              res.outcome.stats.error.code != gpusim::LaunchErrorCode::kNone ||
              !res.outcome.detail.empty();
          if (res.status != service::JobStatus::kFailed || !structured) {
            ++victim_unstructured;
          }
        }
      }
    }
  }

  // ---- Shed service: CoDel overload shedding on a burst tenant -------
  service::ServiceStats shed_stats;
  std::uint64_t shed_undrained = 0;
  obs::Json shed_telemetry = obs::Json::object();
  {
    service::ServiceConfig cfg;
    cfg.workers = workers;
    cfg.start_paused = true;
    cfg.shed_target_ns = 1000;
    cfg.shed_interval_ns = 1000;
    service::ReductionService svc(cfg, {{"burst", 1.0}});
    std::vector<std::future<service::JobResult>> futs;
    // Small jobs first drag the arrival-pacing mean down; the oversized
    // burst behind them then outruns its arrivals, the modeled wait climbs
    // past target for a full interval, and dispatch sheds newest-first.
    for (int i = 0; i < 8; ++i) futs.push_back(svc.submit(clean_job("burst", r)));
    for (int i = 0; i < 8; ++i) {
      futs.push_back(svc.submit(clean_job("burst", big_r)));
    }
    svc.resume();
    shed_undrained = svc.drain(std::chrono::seconds(120));
    shed_stats = svc.stats();
    shed_telemetry = svc.metrics_json();
    if (shed_undrained == 0) {
      for (auto& f : futs) (void)f.get();
    }
  }

  // ---- Baseline: the clean alice/bob jobs with no chaos around them --
  std::uint64_t baseline_checksum = kFnvOffset;
  std::uint64_t baseline_undrained = 0;
  {
    service::ServiceConfig cfg;
    cfg.workers = workers;
    service::ReductionService svc(cfg, {{"alice", 2.0}, {"bob", 2.0}});
    std::vector<std::future<service::JobResult>> futs;
    futs.reserve(clean_replay.size());
    for (service::JobSpec& job : clean_replay) {
      futs.push_back(svc.submit(std::move(job)));
    }
    baseline_undrained = svc.drain(std::chrono::seconds(120));
    if (baseline_undrained == 0) {
      for (auto& f : futs) {
        fold_hash(baseline_checksum, f.get().outcome.result_hash);
      }
    }
  }

  std::cout << "== service chaos campaign ==\n"
            << "submitted " << stats.submitted << "  completed "
            << stats.completed << "  failed " << stats.failed
            << "  cancelled " << stats.cancelled << "  deadline_exceeded "
            << stats.deadline_exceeded << "\n"
            << "breaker: " << stats.breaker_opens << " opens, "
            << stats.rejected_breaker << " fast-failed submission(s)\n"
            << "victim: " << victim_attempts << " guarded attempts, "
            << victim_unstructured << " unstructured outcome(s)\n"
            << "shed service: " << shed_stats.shed << " of "
            << shed_stats.admitted << " admitted jobs shed\n"
            << "undrained: chaos " << undrained << ", shed "
            << shed_undrained << ", baseline " << baseline_undrained << "\n"
            << "clean checksum " << hex64(clean_checksum) << "  baseline "
            << hex64(baseline_checksum) << "\n";

  auto& chaos = obs.record().entry("chaos");
  chaos.metric("submitted", static_cast<double>(stats.submitted))
      .metric("admitted", static_cast<double>(stats.admitted))
      .metric("rejected_total",
              static_cast<double>(stats.rejected_queue + stats.rejected_memory +
                                  stats.rejected_breaker))
      .metric("rejected_breaker", static_cast<double>(stats.rejected_breaker))
      .metric("completed", static_cast<double>(stats.completed))
      .metric("failed", static_cast<double>(stats.failed))
      .metric("cancelled", static_cast<double>(stats.cancelled))
      .metric("deadline_exceeded",
              static_cast<double>(stats.deadline_exceeded))
      .metric("shed", static_cast<double>(stats.shed))
      .metric("breaker_opens", static_cast<double>(stats.breaker_opens))
      .metric("recovered", static_cast<double>(stats.recovered))
      .metric("victim_attempts", static_cast<double>(victim_attempts))
      .metric("victim_unstructured",
              static_cast<double>(victim_unstructured))
      .metric("undrained", static_cast<double>(undrained))
      .attr("clean_checksum", hex64(clean_checksum));
  if (metrics_on) chaos.telemetry(std::move(chaos_telemetry));

  // The scheduled outcome — chaos_report fails the gate on any mismatch
  // between these and the same-named "chaos" metrics.
  obs.record()
      .entry("expect")
      .metric("breaker_opens", 2)
      .metric("rejected_breaker", 1)
      .metric("failed", 3)
      .metric("cancelled", 2)
      .metric("deadline_exceeded", 1)
      .metric("shed", 0)
      .metric("completed", 19)
      .metric("victim_unstructured", 0)
      .metric("undrained", 0);

  auto& shed = obs.record().entry("shed");
  shed.metric("submitted", static_cast<double>(shed_stats.submitted))
      .metric("admitted", static_cast<double>(shed_stats.admitted))
      .metric("completed", static_cast<double>(shed_stats.completed))
      .metric("shed", static_cast<double>(shed_stats.shed))
      .metric("shed_min", 1)
      .metric("undrained", static_cast<double>(shed_undrained));
  if (metrics_on) shed.telemetry(std::move(shed_telemetry));

  obs.record()
      .entry("baseline")
      .metric("jobs", static_cast<double>(clean_replay.size()))
      .metric("undrained", static_cast<double>(baseline_undrained))
      .attr("clean_checksum", hex64(baseline_checksum));

  obs.record().meta("reduction_extent", r);
  obs.record().meta("workers", static_cast<std::int64_t>(workers));
  obs.record().meta("faults", kStickyFault);

  const bool live = undrained == 0 && shed_undrained == 0 &&
                    baseline_undrained == 0;
  return obs.finish() && live ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return accred::util::guarded_main([&] { return run(argc, argv); });
}
