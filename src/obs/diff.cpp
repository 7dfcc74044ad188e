#include "obs/diff.hpp"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "obs/record.hpp"

namespace accred::obs {

namespace {

DiffReport schema_fail(std::string why) {
  DiffReport r;
  r.exit_code = 2;
  r.schema_error = std::move(why);
  return r;
}

const Json* find_entry(const Json& entries, const std::string& name) {
  for (const Json& e : entries.elements()) {
    if (e.at("name").as_string() == name) return &e;
  }
  return nullptr;
}

}  // namespace

double parse_tolerance(const std::string& text) {
  if (text.empty()) throw std::invalid_argument("empty tolerance");
  std::size_t used = 0;
  double v = std::stod(text, &used);
  if (used < text.size()) {
    if (text.substr(used) != "%") {
      throw std::invalid_argument("bad tolerance '" + text +
                                  "' (want e.g. 0.25 or 25%)");
    }
    v /= 100.0;
  }
  if (v < 0) throw std::invalid_argument("tolerance must be >= 0");
  return v;
}

std::size_t DiffReport::regressions() const {
  std::size_t n = 0;
  for (const DiffLine& l : lines) {
    if (l.status == DiffLine::Status::kRegression) ++n;
  }
  return n;
}

bool metric_is_gated(const std::string& key) {
  return key.find("wall") == std::string::npos;
}

bool metric_higher_is_better(const std::string& key) {
  // Latency names win first: a "_ms" suffix or a percentile infix marks a
  // time (queue_wait_p99_ms, e2e_p50_ms, ...) as lower-is-better no matter
  // what other substrings the name happens to contain.
  if (key.ends_with("_ms") || key.find("_p50") != std::string::npos ||
      key.find("_p99") != std::string::npos) {
    return false;
  }
  // "jobs_per_sec" joins "eff"/"occupancy" for the service records: a
  // completion rate that *drops* is the regression. (It is emitted as
  // wall_jobs_per_sec today, so never gated — the polarity still shapes
  // the wall report's arrows.)
  return key.find("eff") != std::string::npos ||
         key.find("occupancy") != std::string::npos ||
         key.find("jobs_per_sec") != std::string::npos;
}

DiffReport diff_records(const Json& baseline, const Json& current,
                        const DiffOptions& opts) {
  // Comparability gate first: same schema, same version, same bench.
  for (const auto* rec : {&baseline, &current}) {
    if (rec->kind() != Json::Kind::kObject || !rec->find("schema") ||
        !rec->find("schema_version") || !rec->find("entries")) {
      return schema_fail("not an accred.bench record (missing schema/"
                         "schema_version/entries)");
    }
  }
  if (baseline.at("schema").as_string() != kBenchSchema ||
      current.at("schema").as_string() != kBenchSchema) {
    return schema_fail("unknown schema '" +
                       baseline.at("schema").as_string() + "' / '" +
                       current.at("schema").as_string() + "'");
  }
  // Versions inside [compat, current] are mutually comparable: bumps in
  // that window only *add* optional sections (v3's "telemetry"), so a v2
  // baseline still gates a v3 record. Anything older or newer is refused.
  const std::int64_t bv = baseline.at("schema_version").as_int();
  const std::int64_t cv = current.at("schema_version").as_int();
  for (const std::int64_t v : {bv, cv}) {
    if (v < kBenchSchemaCompatVersion || v > kBenchSchemaVersion) {
      return schema_fail(
          "schema_version v" + std::to_string(v) + " outside the comparable"
          " range [v" + std::to_string(kBenchSchemaCompatVersion) + ", v" +
          std::to_string(kBenchSchemaVersion) + "] (baseline v" +
          std::to_string(bv) + ", current v" + std::to_string(cv) + ")");
    }
  }
  const std::string bb = baseline.at("bench").as_string();
  const std::string cb = current.at("bench").as_string();
  if (bb != cb) {
    return schema_fail("comparing different benches: '" + bb + "' vs '" +
                       cb + "'");
  }

  DiffReport report;
  if (bv != cv) {
    report.notes.push_back("cross-version diff: baseline v" +
                           std::to_string(bv) + " vs current v" +
                           std::to_string(cv) +
                           " (newer versions only add optional sections)");
  }
  const Json& bentries = baseline.at("entries");
  const Json& centries = current.at("entries");
  for (const Json& be : bentries.elements()) {
    const std::string& name = be.at("name").as_string();
    const Json* ce = find_entry(centries, name);
    if (!ce) {
      return schema_fail("baseline entry '" + name +
                         "' is missing from the current record");
    }
    const Json& bmetrics = be.at("metrics");
    const Json& cmetrics = ce->at("metrics");
    for (const auto& [key, bval] : bmetrics.items()) {
      if (!metric_is_gated(key)) continue;
      const Json* cval = cmetrics.find(key);
      if (!cval) {
        return schema_fail("metric '" + key + "' of entry '" + name +
                           "' is missing from the current record");
      }
      if (!bval.is_number() || !cval->is_number()) continue;
      const double b = bval.as_double();
      const double c = cval->as_double();
      DiffLine line;
      line.entry = name;
      line.metric = key;
      line.base = b;
      line.current = c;
      // Signed change in the metric's "worse" direction: positive =
      // worse, negative = better, regardless of metric polarity.
      const double sign = metric_higher_is_better(key) ? -1.0 : 1.0;
      if (b == 0.0) {
        line.rel_change = (c == 0.0) ? 0.0
                          : sign * (c > 0 ? std::numeric_limits<double>::infinity()
                                          : -std::numeric_limits<double>::infinity());
      } else {
        line.rel_change = sign * (c - b) / std::abs(b);
      }
      if (line.rel_change > opts.tolerance) {
        line.status = DiffLine::Status::kRegression;
      } else if (line.rel_change < -opts.tolerance) {
        line.status = DiffLine::Status::kImproved;
      }
      report.lines.push_back(std::move(line));
    }
  }
  if (centries.size() > bentries.size()) {
    report.notes.push_back(
        std::to_string(centries.size() - bentries.size()) +
        " entries in the current record have no baseline (not gated)");
  }
  report.exit_code = report.regressions() ? 1 : 0;
  return report;
}

DiffReport diff_files(const std::string& baseline_path,
                      const std::string& current_path,
                      const DiffOptions& opts) {
  Json docs[2];
  const std::string* paths[2] = {&baseline_path, &current_path};
  for (int i = 0; i < 2; ++i) {
    std::ifstream in(*paths[i]);
    if (!in) return schema_fail("cannot open " + *paths[i]);
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
      docs[i] = Json::parse(buf.str());
    } catch (const std::exception& e) {
      return schema_fail(*paths[i] + ": " + e.what());
    }
  }
  return diff_records(docs[0], docs[1], opts);
}

void print_diff(std::ostream& os, const DiffReport& report, bool all) {
  if (report.exit_code == 2) {
    os << "bench_diff: records not comparable: " << report.schema_error
       << '\n';
    return;
  }
  const auto old_flags = os.flags();
  os << std::fixed;
  std::size_t shown = 0;
  for (const DiffLine& l : report.lines) {
    if (!all && l.status == DiffLine::Status::kOk) continue;
    const char* tag = l.status == DiffLine::Status::kRegression ? "REGRESSION"
                      : l.status == DiffLine::Status::kImproved ? "improved"
                                                                : "ok";
    os << "  " << std::setw(10) << tag << "  " << l.entry << " :: "
       << l.metric << "  " << std::setprecision(6) << l.base << " -> "
       << l.current << "  (" << std::showpos << std::setprecision(1)
       << l.rel_change * 100.0 << "% toward worse)" << std::noshowpos
       << '\n';
    ++shown;
  }
  if (!shown) os << "  all " << report.lines.size() << " metrics ok\n";
  for (const std::string& n : report.notes) os << "  note: " << n << '\n';
  os << (report.exit_code == 0 ? "PASS" : "FAIL") << ": "
     << report.regressions() << " regression(s) across "
     << report.lines.size() << " compared metrics\n";
  os.flags(old_flags);
}

}  // namespace accred::obs
