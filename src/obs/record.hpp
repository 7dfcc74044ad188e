// Structured run records: the machine-readable twin of the paper-shaped
// text tables every bench and example prints. One RunRecord per process
// run; one BenchEntry per table row (uniquely named, so bench_diff can
// match rows across runs); LaunchStats serialize with every raw counter
// plus the derived metrics the paper argues from.
//
// Schema stability contract (DESIGN.md §8): field names and meanings never
// change within a schema_version; adding fields is allowed, removing or
// renaming bumps the version, and tools/bench_diff refuses to compare
// records across versions.
//
// Metric-name conventions consumed by bench_diff:
//   * keys containing "wall" are host wall-clock times — informational,
//     never gated (everything else in "metrics" must be deterministic);
//   * keys containing "eff", "occupancy", or "jobs_per_sec" are
//     better-when-larger; all other metrics (times, counters) are
//     better-when-smaller.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "gpusim/cost_model.hpp"
#include "gpusim/dim3.hpp"
#include "obs/json.hpp"
#include "util/cli.hpp"

namespace accred::obs {

inline constexpr const char* kBenchSchema = "accred.bench";
/// v2: entries may carry a "profile" section (per-stage attribution from
/// obs/profiler.hpp) alongside "stats"; later additions within v2 (allowed
/// by the contract above): a "races" stats counter and a per-entry "races"
/// report array, both emitted only when the launch ran under racecheck.
/// v3: entries may carry a "telemetry" section (a MetricsRegistry dump —
/// service latency histograms and lifecycle counters, DESIGN.md §14),
/// emitted only when metrics emission is on. Version history in
/// DESIGN.md §8.
inline constexpr std::int64_t kBenchSchemaVersion = 3;
/// Oldest baseline version bench_diff still compares against the current
/// one. v3 only *adds* an optional section, so v2 baselines stay
/// comparable; v1 predates the profile section's stage-name stability
/// guarantees and is refused.
inline constexpr std::int64_t kBenchSchemaCompatVersion = 2;

/// Serialize one LaunchStats: all raw counters plus derived coalescing
/// efficiency, bank-conflict factor, and SM occupancy (populated SMs over
/// the device's SM count under round-robin block assignment).
[[nodiscard]] Json stats_to_json(const gpusim::LaunchStats& s,
                                 const gpusim::DeviceLimits& lim = {});

/// The (x, y, z) coordinates stored under `key` of `obj` (a race report
/// or access, a fault event, a launch error), rendered "(x,y,z)". Throws
/// std::runtime_error naming `key` unless it holds exactly three
/// integers, so a report tool refuses a malformed record rather than read
/// past the array.
[[nodiscard]] std::string dim3_field_string(const Json& obj,
                                            std::string_view key);

/// One named row of a bench record. Names must be unique within a record
/// — they are the join key bench_diff matches rows by.
class BenchEntry {
public:
  explicit BenchEntry(std::string name) : name_(std::move(name)) {}

  /// Add a numeric metric (see the naming conventions above).
  BenchEntry& metric(const std::string& key, double value);
  /// Add a descriptive string attribute (compiler, verification status...).
  BenchEntry& attr(const std::string& key, std::string value);
  /// Attach the full LaunchStats block. When `s.profile` is non-empty
  /// (the launch ran with profiling on), the per-stage table is attached
  /// as the entry's "profile" section too.
  BenchEntry& stats(const gpusim::LaunchStats& s,
                    const gpusim::DeviceLimits& lim = {});

  /// Attach a per-stage profile section explicitly (schema v2).
  BenchEntry& profile(const StageTable& table);

  /// Attach a telemetry section (schema v3): a MetricsRegistry::to_json()
  /// dump. Callers gate this on --metrics / ACCRED_METRICS so metrics-off
  /// records keep their pre-v3 shape.
  BenchEntry& telemetry(Json registry_dump);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Json to_json() const;

private:
  std::string name_;
  Json metrics_ = Json::object();
  Json attrs_ = Json::object();
  std::optional<Json> stats_;
  std::optional<Json> profile_;
  /// Race reports (schema v2 addition): set — possibly to an empty array —
  /// whenever the attached stats ran under racecheck, absent otherwise.
  std::optional<Json> races_;
  /// Telemetry section (schema v3 addition): set only when the harness
  /// runs with metrics emission on, absent otherwise.
  std::optional<Json> telemetry_;
};

/// A whole-run record for one bench executable.
class RunRecord {
public:
  explicit RunRecord(std::string bench_name)
      : bench_(std::move(bench_name)) {}

  /// Get-or-create the entry named `name` (creation order is emission
  /// order, so records stay diffable as text too).
  BenchEntry& entry(const std::string& name);

  /// Run-level metadata (geometry, extents, profile, ...).
  void meta(const std::string& key, std::string value);
  void meta(const std::string& key, double value);
  void meta(const std::string& key, std::int64_t value);

  [[nodiscard]] const std::string& bench() const { return bench_; }
  [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }
  [[nodiscard]] Json to_json() const;

  /// Pretty-print the record to `path`; returns false on IO failure.
  [[nodiscard]] bool write(const std::string& path) const;

private:
  std::string bench_;
  Json meta_ = Json::object();
  std::vector<BenchEntry> entries_;
};

/// Per-executable observability session: reads `--json FILE` and
/// `--trace FILE` (falling back to the ACCRED_TRACE env var) from the
/// already-parsed CLI, exposes the RunRecord the harness fills, and on
/// destruction writes the record and flushes the trace. Harness usage:
///
///   obs::Session obs(cli, "table2_testsuite");
///   obs.record().entry("gang/+/float/openuh").metric("device_ms", ...);
class Session {
public:
  Session(const util::Cli& cli, std::string bench_name);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] RunRecord& record() { return record_; }
  [[nodiscard]] bool json_enabled() const { return !json_path_.empty(); }

  /// Write the record now (idempotent; the destructor then skips it).
  /// Returns true if nothing was requested or the write succeeded.
  bool finish();

private:
  RunRecord record_;
  std::string json_path_;
  bool finished_ = false;
};

}  // namespace accred::obs
