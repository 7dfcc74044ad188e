// Regression diff over two accred.bench records (obs/record.hpp): the CI
// gate behind tools/bench_diff. Entries are joined by name, every
// deterministic metric is compared under a relative tolerance, and the
// verdict maps to a process exit code:
//   0 — within tolerance (improvements included),
//   1 — at least one metric regressed past the tolerance,
//   2 — the records are not comparable (schema name/version/bench
//       mismatch, baseline entry or metric missing from current).
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace accred::obs {

struct DiffOptions {
  /// Relative tolerance: a lower-is-better metric regresses when
  /// cur > base * (1 + tolerance); higher-is-better when
  /// cur < base * (1 - tolerance).
  double tolerance = 0.10;
};

/// Parse a tolerance argument: "25%" or "0.25". Throws
/// std::invalid_argument on junk or a negative value.
[[nodiscard]] double parse_tolerance(const std::string& text);

struct DiffLine {
  enum class Status : std::uint8_t { kOk, kImproved, kRegression };
  std::string entry;
  std::string metric;
  double base = 0;
  double current = 0;
  double rel_change = 0;  ///< signed, in the metric's "worse" direction
  Status status = Status::kOk;
};

struct DiffReport {
  int exit_code = 0;
  std::string schema_error;        ///< set when exit_code == 2
  std::vector<DiffLine> lines;     ///< one per compared metric
  std::vector<std::string> notes;  ///< non-fatal observations
  [[nodiscard]] std::size_t regressions() const;
};

/// Metric-name conventions (record.hpp): "wall" metrics are skipped;
/// "eff"/"occupancy"/"jobs_per_sec" metrics are better-when-larger.
[[nodiscard]] bool metric_is_gated(const std::string& key);
[[nodiscard]] bool metric_higher_is_better(const std::string& key);

/// Compare two parsed records.
[[nodiscard]] DiffReport diff_records(const Json& baseline,
                                      const Json& current,
                                      const DiffOptions& opts = {});

/// Load both files, parse, and diff; IO/parse failures yield exit_code 2
/// with the reason in schema_error.
[[nodiscard]] DiffReport diff_files(const std::string& baseline_path,
                                    const std::string& current_path,
                                    const DiffOptions& opts = {});

/// Human-readable rendering. `all` prints every compared metric instead
/// of only regressions/improvements.
void print_diff(std::ostream& os, const DiffReport& report, bool all = false);

}  // namespace accred::obs
