// perfbench: runs one workload for a fixed time and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--setup-only] [--sim-threads N] [--workers N]
//             [--spans-out FILE]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// measures the same window twice, untraced then traced, and prints the
// per-layer metrics; the difference between the two is the tracing
// overhead. --setup-only stops after set-up and prints setup_s alone (run.py
// starts several such processes and reports the median). --sim-threads and
// --workers override the workload's host parallelism, to check that the
// modeled fingerprint does not depend on it. The last line of standard
// output is one JSON object; run.py checks it against BENCHMARK.json.
#include <sys/resource.h>

#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench.hpp"

namespace {

using namespace perfbench;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

Options parse(int argc, char** argv, std::string& spans_out) {
  Options o;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      throw std::invalid_argument(std::string(argv[i]) + " needs a value");
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload") {
      o.workload = value(i);
    } else if (a == "--seed") {
      o.seed = std::stoull(value(i));
    } else if (a == "--seconds") {
      o.seconds = std::stod(value(i));
    } else if (a == "--trace") {
      o.trace = std::stoi(value(i)) != 0;
    } else if (a == "--setup-only") {
      o.setup_only = true;
    } else if (a == "--sim-threads") {
      o.sim_threads = static_cast<std::uint32_t>(std::stoul(value(i)));
    } else if (a == "--workers") {
      o.workers = static_cast<std::uint32_t>(std::stoul(value(i)));
    } else if (a == "--spans-out") {
      spans_out = value(i);
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

constexpr int kSetupCalSamples = 10;

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

/// Per-layer metrics of the traced window `m`. A layer the workload never
/// calls (the service on table2_grid, the service and runner on heat_iter)
/// takes its numbers from the service probe's spans instead.
std::vector<Metric> layer_metrics(const Measurement& untraced,
                                  const Measurement& m,
                                  const Measurement& probe,
                                  const SubstrateProbe& sub) {
  const Tracer& t = tracer();
  const bool own_service = !t.durations_ms("service.submit").empty();
  const bool own_runner = !t.durations_ms("testsuite.exec").empty();
  auto spans = [&](const char* name, bool own) {
    return t.durations_ms(name, !own);
  };
  auto sum = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return s;
  };
  const std::vector<double> submit = spans("service.submit", own_service);
  const std::vector<double> queue = spans("service.queue", own_service);
  const std::vector<double> plan = t.durations_ms("acc.plan");
  const std::vector<double> exec = spans("testsuite.exec", own_runner);
  const std::vector<double> run = spans("testsuite.run", own_runner);
  const Measurement& svc = own_service ? m : probe;
  const Measurement& runner = own_runner ? m : probe;
  const double traced_rate = m.e2e.ops_per_s;
  const double untraced_rate = untraced.e2e.ops_per_s;
  return {
      {"service.submit_us_p50", 1e3 * percentile(submit, 0.5), "us"},
      {"service.submit_us_p99", 1e3 * percentile(submit, 0.99), "us"},
      {"service.queue_ms_p50", percentile(queue, 0.5), "ms"},
      {"service.queue_ms_p99", percentile(queue, 0.99), "ms"},
      {"service.cache_hit_rate", ratio(svc.cache_hits, svc.cache_lookups),
       "ratio"},
      {"acc.plan_us_p50", 1e3 * percentile(plan, 0.5), "us"},
      {"acc.plan_us_p99", 1e3 * percentile(plan, 0.99), "us"},
      {"testsuite.exec_ms_p50", percentile(exec, 0.5), "ms"},
      {"testsuite.exec_ms_p99", percentile(exec, 0.99), "ms"},
      {"testsuite.setup_frac", 1 - ratio(sum(exec), sum(run)), "ratio"},
      {"testsuite.attempts", ratio(runner.unit_attempts, runner.unit_ops),
       "count"},
      {"reduce.kernels_per_op", ratio(m.unit_kernels, m.unit_ops), "count"},
      {"gpusim.ns_per_lane", ratio(m.sim.host_ns, m.sim.host_lanes), "ns"},
      {"gpusim.modeled_ns_per_host_ns",
       ratio(m.sim.host_modeled_ns, m.sim.host_ns), "ratio"},
      {"gpusim.lanes", m.unit.lanes, "count"},
      {"gpusim.launches", m.unit.launches, "count"},
      {"gpusim.gmem_requests", m.unit.gmem_requests, "count"},
      {"gpusim.smem_requests", m.unit.smem_requests, "count"},
      {"gpusim.barriers", m.unit.barriers, "count"},
      {"gpusim.fiber_switch_ns", sub.fiber_switch_ns, "ns"},
      {"gpusim.warplog_ns_per_access", sub.warplog_ns_per_access, "ns"},
      {"gpusim.barrier_ns_per_lane", sub.barrier_ns_per_lane, "ns"},
      {"gpusim.launch_fixed_us", sub.launch_fixed_us, "us"},
      {"driver.late_p99_ms", percentile(m.late_ms, 0.99), "ms"},
      {"driver.calibration_ms", m.e2e.cal_ms, "ms"},
      {"obs.trace_overhead_frac",
       traced_rate > 0 ? untraced_rate / traced_rate - 1 : 0, "ratio"},
      {"obs.unattributed_frac", t.uncovered_frac("driver.closed_loop"),
       "ratio"},
  };
}

/// The end-to-end metrics, printed first under the workload's own names.
void print_summary(const Options& o, const Workload& w, const Measurement& m,
                   double setup_s, const std::string& check) {
  const std::string op = w.op_name();
  const EndToEnd& e = m.e2e;
  std::printf("== perfbench %s (seed %llu, %.3g s) ==\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds);
  std::printf("setup_s            %.4f s\n", setup_s);
  std::printf("%-18s %.4f 1/s  (%.0f in %.3f s)\n",
              (op + "s_per_s").c_str(), e.ops_per_s, m.ops, m.wall_s);
  std::printf("%-18s %.4f ms  (%zu samples)\n", (op + "_p50_ms").c_str(),
              e.p50_ms, e.samples);
  std::printf("%-18s %.4f ms\n", (op + "_p90_ms").c_str(), e.p90_ms);
  std::printf("calibration        %.3f ms (reference %.3g ms): time figures "
              "above are scaled by %.4f\n",
              e.cal_ms, kCalibrationRefMs, kCalibrationRefMs / e.cal_ms);
  std::printf("sim_lanes_per_s    %.4g 1/s\n", e.lanes_per_s);
  std::printf("modeled_ms         %.6f ms  (fixed unit of %.0f %ss; the model "
              "is unvalidated, shapes only)\n",
              m.unit.modeled_ns / 1e6, m.unit_ops, op.c_str());
  std::printf("peak_rss_mb        %.1f MB\n", peak_rss_mb());
  std::printf("failed_frac        %.6g  (%llu of %llu)\n",
              ratio(static_cast<double>(m.failed),
                    static_cast<double>(m.attempted)),
              static_cast<unsigned long long>(m.failed),
              static_cast<unsigned long long>(m.attempted));
  std::printf("%s\n", check.c_str());
}

int run(int argc, char** argv) {
  const auto t_start = Clock::now();
  std::string spans_out;
  const Options o = parse(argc, argv, spans_out);
  const std::unique_ptr<Workload> w = make_workload(o);
  if (!w) {
    throw std::invalid_argument("unknown --workload '" + o.workload + "'");
  }

  tracer().set_enabled(o.trace);
  w->setup();
  // Set-up time, scaled by calibration samples taken right after it.
  const double raw_setup_s = ms_between(t_start, Clock::now()) / 1e3;
  std::vector<double> setup_cal;
  for (int i = 0; i < kSetupCalSamples; ++i) {
    setup_cal.push_back(calibration_sample());
  }
  const double setup_s = raw_setup_s * time_scale(setup_cal);
  if (o.setup_only) {
    std::printf("{\"setup_s\": %.17g}\n", setup_s);
    return 0;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  if (!o.trace) {
    const Measurement m = w->measure(o.seconds);
    attempted += m.attempted;
    failed += m.failed;
    const std::string check = w->check(attempted, failed);
    print_summary(o, *w, m, setup_s, check);
    const EndToEnd& e = m.e2e;
    metrics = {
        {"setup_s", setup_s, "s"},
        {"ops_per_s", e.ops_per_s, "1/s"},
        {"op_p50_ms", e.p50_ms, "ms"},
        {"op_p90_ms", e.p90_ms, "ms"},
        {"sim_lanes_per_s", e.lanes_per_s, "1/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    tracer().set_enabled(false);
    const Measurement untraced = w->measure(o.seconds / 2);
    tracer().set_enabled(true);
    const Measurement m = w->measure(o.seconds / 2);
    attempted += untraced.attempted + m.attempted;
    failed += untraced.failed + m.failed;
    const std::string check = w->check(attempted, failed);
    tracer().set_probe(true);
    const SubstrateProbe sub = probe_substrate();
    const bool own_service = !tracer().durations_ms("service.submit").empty();
    const Measurement probe =
        own_service ? Measurement{} : probe_service(o.seed);
    attempted += probe.attempted;
    failed += probe.failed;
    print_summary(o, *w, m, setup_s, check);
    metrics = layer_metrics(untraced, m, probe, sub);
    std::printf("self time by layer, ms (workload spans):");
    for (const auto& [layer, ms] : tracer().self_ms_by_layer()) {
      std::printf("  %s %.1f", layer.c_str(), ms);
    }
    std::printf("\n");
    for (const Metric& x : metrics) {
      std::printf("  %-32s %.6g %s\n", x.name.c_str(), x.value, x.unit);
    }
    if (!spans_out.empty() && !tracer().write_json(spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_out.c_str());
    }
  }
  const bool correct = failed == 0;
  std::fflush(stdout);
  print_json(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
