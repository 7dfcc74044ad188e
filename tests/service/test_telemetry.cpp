// Service telemetry determinism (DESIGN.md §14): at a quiescent point the
// metrics registry — counters, latency histograms from the virtual
// timeline, occupancy gauges — must be a pure function of the submission
// sequence. Same submissions × {workers 1,3} × {sim-threads 1,4} must
// dump byte-equal JSON, with and without a fault campaign driving
// execute_guarded retries, and the trace must carry the same lifecycle
// span counts (wall timestamps excluded by construction: only counts are
// compared).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"
#include "service_test_util.hpp"
#include "testsuite/cases.hpp"

namespace accred::service {
namespace {

using test::drain_or_fail;
using test::make_job;

struct ScenarioResult {
  std::string metrics_dump;
  ServiceStats stats;
};

/// The fixed submission sequence: three tenants, a mix of positions and
/// extents, submitted from one thread. With `faults` set, every third job
/// of tenant "b" runs under a recoverable mid-kernel abort campaign, so
/// execute_guarded retries fire. A paused admission phase with a small
/// occupancy budget makes the final submissions reject deterministically.
ScenarioResult run_scenario(std::uint32_t workers, std::uint32_t sim_threads,
                            bool faults) {
  ServiceConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = 12;
  cfg.start_paused = true;
  ReductionService svc(cfg, {{"a", 2.0}, {"b", 1.0}, {"c", 1.0}});
  const auto grid = testsuite::table2_grid();
  std::vector<std::future<JobResult>> futs;
  for (std::size_t i = 0; i < 15; ++i) {  // 12 admitted, 3 rejected
    const char* tenant = i % 3 == 0 ? "a" : (i % 3 == 1 ? "b" : "c");
    JobSpec job = make_job(tenant, grid[i % grid.size()].pos, 96);
    job.kase = grid[i % grid.size()];
    job.sim_threads = sim_threads;
    if (faults && job.tenant == "b" && i % 3 == 1) {
      job.faults = "warp_abort:block=0,nth=3";
    }
    futs.push_back(svc.submit(std::move(job)));
  }
  svc.resume();
  drain_or_fail(svc);
  for (auto& f : futs) (void)f.get();
  return {svc.metrics_json().dump(), svc.stats()};
}

TEST(Telemetry, RegistryIsBitIdenticalAcrossWorkersAndSimThreads) {
  const ScenarioResult base = run_scenario(1, 1, false);
  ASSERT_FALSE(base.metrics_dump.empty());
  for (const std::uint32_t workers : {1u, 3u}) {
    for (const std::uint32_t sim : {1u, 4u}) {
      const ScenarioResult r = run_scenario(workers, sim, false);
      EXPECT_EQ(r.metrics_dump, base.metrics_dump)
          << "workers=" << workers << " sim_threads=" << sim;
    }
  }
}

TEST(Telemetry, RegistryStaysDeterministicUnderFaultCampaign) {
  const ScenarioResult base = run_scenario(1, 1, true);
  EXPECT_GT(base.stats.recovered, 0u) << "the campaign must actually fire";
  for (const std::uint32_t workers : {1u, 3u}) {
    for (const std::uint32_t sim : {1u, 4u}) {
      const ScenarioResult r = run_scenario(workers, sim, true);
      EXPECT_EQ(r.metrics_dump, base.metrics_dump)
          << "workers=" << workers << " sim_threads=" << sim;
    }
  }
  // The campaign must leave a mark: recovered counter and a different
  // registry than the clean run (retries change modeled device time).
  const ScenarioResult clean = run_scenario(1, 1, false);
  EXPECT_NE(base.metrics_dump, clean.metrics_dump);
}

TEST(Telemetry, RegistryMirrorsServiceStats) {
  const ScenarioResult r = run_scenario(2, 1, false);
  const obs::Json j = obs::Json::parse(r.metrics_dump);
  const obs::Json& counters = j.at("counters");
  EXPECT_EQ(counters.at("service/submitted").as_int(),
            static_cast<std::int64_t>(r.stats.submitted));
  EXPECT_EQ(counters.at("service/admitted").as_int(),
            static_cast<std::int64_t>(r.stats.admitted));
  EXPECT_EQ(counters.at("service/completed").as_int(),
            static_cast<std::int64_t>(r.stats.completed));
  EXPECT_EQ(counters.at("service/rejected_queue").as_int(),
            static_cast<std::int64_t>(r.stats.rejected_queue));
  // One histogram sample per executed job, service-wide and per tenant.
  const obs::Json& hists = j.at("histograms");
  const std::int64_t executed =
      static_cast<std::int64_t>(r.stats.completed + r.stats.failed);
  for (const char* name :
       {"service/device_ms", "service/queue_wait_ms", "service/e2e_ms"}) {
    EXPECT_EQ(hists.at(name).at("count").as_int(), executed) << name;
  }
  std::int64_t tenant_total = 0;
  for (const char* t : {"a", "b", "c"}) {
    tenant_total += hists.at("tenant/" + std::string(t) + "/e2e_ms")
                        .at("count")
                        .as_int();
  }
  EXPECT_EQ(tenant_total, executed);
  // The virtual sampler saw every admitted job once.
  EXPECT_EQ(hists.at("service/queue_depth").at("count").as_int(), executed);
  EXPECT_GE(j.at("gauges").at("service/queue_depth_max").as_int(), 0);
  EXPECT_GT(j.at("gauges").at("service/inflight_bytes_max").as_int(), 0);
}

TEST(Telemetry, HistogramPercentilesComeFromTheVirtualTimeline) {
  ServiceConfig cfg;
  cfg.workers = 2;
  ReductionService svc(cfg);
  std::vector<std::future<JobResult>> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(svc.submit(make_job()));
  drain_or_fail(svc);
  for (auto& f : futs) EXPECT_EQ(f.get().status, JobStatus::kOk);
  const obs::Histogram* e2e = svc.metrics().find_histogram("service/e2e_ms");
  ASSERT_NE(e2e, nullptr);
  EXPECT_EQ(e2e->count(), 8u);
  // Identical jobs at mean-paced arrivals: every wait is 0, so e2e == the
  // device-time distribution and p99 sits in p50's bucket neighborhood.
  const obs::Histogram* wait =
      svc.metrics().find_histogram("service/queue_wait_ms");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->max_units(), 0u) << "identical jobs never queue (virtual)";
  EXPECT_GT(e2e->percentile(0.5), 0.0);
  EXPECT_GE(e2e->percentile(0.99), e2e->percentile(0.5));
}

/// Count lifecycle spans by name (and M metadata rows) in a flushed trace.
std::map<std::string, int> trace_span_counts(std::uint32_t workers,
                                             std::uint32_t sim_threads) {
  const std::string path = ::testing::TempDir() + "accred_svc_telemetry_" +
                           std::to_string(workers) + "_" +
                           std::to_string(sim_threads) + ".json";
  std::remove(path.c_str());
  obs::trace_reset();
  obs::trace_configure(path);
  (void)run_scenario(workers, sim_threads, false);
  EXPECT_TRUE(obs::trace_flush());
  obs::trace_reset();

  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  const obs::Json doc = obs::Json::parse(ss.str());
  std::map<std::string, int> counts;
  for (const obs::Json& ev : doc.at("traceEvents").elements()) {
    const std::string& ph = ev.at("ph").as_string();
    if (ph == "X") {
      counts[ev.at("name").as_string()] += 1;
    } else if (ph == "M") {
      counts["M:" + ev.at("args").at("name").as_string()] += 1;
    }
  }
  std::remove(path.c_str());
  return counts;
}

TEST(Telemetry, LifecycleSpanCountsMatchAcrossConfigs) {
  const auto base = trace_span_counts(1, 1);
  // 12 admitted jobs each leave submit/plan/queued/execute/deliver; the 3
  // deterministic rejections leave reject spans and nothing else.
  EXPECT_EQ(base.at("submit"), 12);
  EXPECT_EQ(base.at("plan"), 12);
  EXPECT_EQ(base.at("queued"), 12);
  EXPECT_EQ(base.at("execute"), 12);
  EXPECT_EQ(base.at("deliver"), 12);
  EXPECT_EQ(base.at("reject"), 3);
  EXPECT_EQ(base.at("M:dispatcher"), 1);
  EXPECT_EQ(base.at("M:worker-0"), 1);

  auto wide = trace_span_counts(3, 4);
  for (const char* name :
       {"submit", "plan", "queued", "execute", "deliver", "reject"}) {
    EXPECT_EQ(wide.at(name), base.at(name)) << name;
  }
  EXPECT_EQ(wide.at("M:worker-2"), 1);
}

}  // namespace
}  // namespace accred::service
