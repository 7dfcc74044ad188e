// Host-performance benchmark of the accred simulator and reduction service.
//
// The benchmark drives the library only through its public calls
// (ReductionService::submit, plan_job, plan_for_case, Runner::run,
// apps::run_heat, gpusim::launch and the gpusim substrate types) and times
// those calls from its own code: every per-layer number comes from spans
// this benchmark records around them (spans.cpp), not from instrumentation
// inside the library. README.md lists the workloads and metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gpusim/cost_model.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Seeded generator for the benchmark's own inputs (job mixes, arrival
/// times, cell order). Kept here rather than borrowed from the library so a
/// library change can never change the generated inputs.
class Rng {
public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

private:
  std::uint64_t state_;
};

/// FNV-1a over the modeled statistics of a sequence of operations: the
/// fingerprint that must not change with host threads, worker count, seed
/// or run.
class Fingerprint {
public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xff;
      h_ *= 1099511628211ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  /// Every modeled statistic of one operation's launches.
  void add(const accred::gpusim::LaunchStats& s) {
    add(s.device_time_ns);
    add(s.blocks);
    add(s.threads);
    add(s.gmem_requests);
    add(s.gmem_segments);
    add(s.gmem_bytes);
    add(s.smem_requests);
    add(s.smem_cycles);
    add(s.barriers);
    add(s.syncwarps);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

[[nodiscard]] std::string hex(std::uint64_t v);

/// Linear-interpolated percentile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// Latency recorded for a failed or refused operation: past any limit.
inline constexpr double kFailedLatencyMs = 1e6;

// ---- Spans ---------------------------------------------------------------

/// One benchmark-side span: a timed call into one layer. `name` is
/// "<layer>.<what>"; the layer is the part before the dot.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   ///< span id, -1 for a root
  bool probe = false;         ///< recorded by a probe, not the workload
};

/// In-memory span store. Recording is off unless enabled; spans are only
/// written out (write_json) when the benchmark ends.
class Tracer {
public:
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Spans recorded from now on carry the probe flag.
  void set_probe(bool on) { probe_ = on; }

  /// Record a finished span; returns its id, or -1 when disabled.
  int record(const char* name, int parent, Clock::time_point start,
             Clock::time_point end);
  /// Open a span now-ish (end filled in by close()).
  int open(const char* name, int parent, Clock::time_point start) {
    return record(name, parent, start, start);
  }
  void close(int id, Clock::time_point end);

  /// Durations (ms) of the workload's (or the probes') spans named `name`.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name,
                                                 bool probe = false) const;
  /// Self time of every span (its duration minus the part of it its
  /// children cover), summed per layer, in ms.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer(
      bool probe = false) const;
  /// Share of the workload's root spans named `root_name` that no child
  /// span covers: wall time attributed to no layer.
  [[nodiscard]] double uncovered_frac(std::string_view root_name) const;

  /// Chrome trace-event JSON ("X" events; args carry id and parent).
  bool write_json(const std::string& path) const;

private:
  [[nodiscard]] std::vector<double> self_ns() const;

  bool enabled_ = false;
  bool probe_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

Tracer& tracer();

// ---- Workloads -----------------------------------------------------------

/// Modeled and host totals over a set of launches.
struct SimTotals {
  double lanes = 0;         ///< Σ LaunchStats::threads
  double launches = 0;
  double gmem_requests = 0;
  double smem_requests = 0;
  double barriers = 0;
  double modeled_ns = 0;    ///< Σ modeled device ns
  double host_ns = 0;       ///< Σ LaunchStats::wall_time_ns (launch host time)
  double host_lanes = 0;    ///< lanes of the launches host_ns covers
  double host_modeled_ns = 0;  ///< modeled ns of the launches host_ns covers

  void add(const accred::gpusim::LaunchStats& s, double kernels) {
    lanes += static_cast<double>(s.threads);
    launches += kernels;
    gmem_requests += static_cast<double>(s.gmem_requests);
    smem_requests += static_cast<double>(s.smem_requests);
    barriers += static_cast<double>(s.barriers);
    modeled_ns += s.device_time_ns;
    host_ns += s.wall_time_ns;
    host_lanes += static_cast<double>(s.threads);
    host_modeled_ns += s.device_time_ns;
  }

  void add(const SimTotals& t) {
    lanes += t.lanes;
    launches += t.launches;
    gmem_requests += t.gmem_requests;
    smem_requests += t.smem_requests;
    barriers += t.barriers;
    modeled_ns += t.modeled_ns;
    host_ns += t.host_ns;
    host_lanes += t.host_lanes;
    host_modeled_ns += t.host_modeled_ns;
  }
};

/// The end-to-end figures of one measurement, each a median that a burst of
/// interference from outside the benchmark moves only a little, and each
/// scaled to the reference host speed (kCalibrationRefMs).
struct EndToEnd {
  double ops_per_s = 0;    ///< verified operations per host second
  double p50_ms = 0;       ///< operation latency
  double p90_ms = 0;
  double lanes_per_s = 0;  ///< simulated lanes per host second
  std::size_t samples = 0;  ///< latency samples behind p50 / p90
  double cal_ms = 0;       ///< median calibration time alongside them
};

/// Host-speed calibration. The benchmark runs on shared hosts whose speed
/// drifts by tens of percent within minutes, which would swamp the changes
/// it exists to show. Alongside every timed window it times a fixed task of
/// its own (random read-modify-writes over a 16 MiB table, about the
/// simulator's mix of arithmetic and cache misses) and scales each time
/// figure by kCalibrationRefMs / (median calibration time), so figures
/// read as on a host where that task takes kCalibrationRefMs. The task is
/// benchmark code: no change to the library can make it faster or slower.
inline constexpr double kCalibrationRefMs = 5.0;

/// Time (ms) of one run of the calibration task on each of `threads`
/// threads at once: the slowest thread sets it, as the slowest shard sets a
/// sharded launch's time.
double calibration_sample(unsigned threads = 1);

/// kCalibrationRefMs / median(cal_ms): multiply a raw time by it, divide a
/// raw rate by it.
double time_scale(const std::vector<double>& cal_ms);

/// What one timed measurement of a workload measured.
struct Measurement {
  EndToEnd e2e;
  double wall_s = 0;  ///< wall time of the throughput phases
  double ops = 0;     ///< verified operations in them
  SimTotals sim;      ///< launches of the throughput phases
  std::vector<double> late_ms;     ///< how late the driver issued each op
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Counts over the workload's fixed unit of work (one pass, one round,
  /// the open-loop job set): these repeat exactly run to run.
  SimTotals unit;
  double unit_ops = 0;
  double unit_kernels = 0;   ///< reduction kernels in the unit
  double unit_attempts = 0;  ///< guarded attempts in the unit
  double cache_hits = 0;
  double cache_lookups = 0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  std::uint32_t sim_threads = 0;  ///< 0 = the workload's own setting
  std::uint32_t workers = 0;      ///< 0 = the workload's own setting
};

/// One workload: set up (warm caches and pools, plan every distinct
/// spec), then measure timed windows, then check the fingerprint.
class Workload {
public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  virtual Measurement measure(double seconds) = 0;
  /// End-of-run correctness checks beyond the per-operation ones: modeled
  /// fingerprint against its expected value and reference results.
  /// Adds to attempted/failed; returns a printable summary line.
  virtual std::string check(std::uint64_t& attempted,
                            std::uint64_t& failed) = 0;
  /// Name of one operation of the throughput unit ("job", "cell", "iter").
  [[nodiscard]] virtual const char* op_name() const = 0;
};

/// The workload named by opts.workload, or null for an unknown name.
std::unique_ptr<Workload> make_workload(const Options& opts);

// ---- Probes --------------------------------------------------------------

/// Short timings of the simulator substrate through public gpusim calls.
struct SubstrateProbe {
  double fiber_switch_ns = 0;
  double warplog_ns_per_access = 0;
  double barrier_ns_per_lane = 0;
  double launch_fixed_us = 0;
};
SubstrateProbe probe_substrate();

/// A fixed slice of the service_mix traffic for workloads that never call
/// the service or the testsuite runner: their service.* and testsuite.*
/// metrics come from these spans (flagged probe).
Measurement probe_service(std::uint64_t seed);

}  // namespace perfbench
