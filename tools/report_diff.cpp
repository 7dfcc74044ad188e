// accred_report diff — the CI regression gate over two records.
//
//   diff BASELINE.json CURRENT.json [--tolerance 25%] [--all]
//   diff BASELINE.json CURRENT.json --wall-report
//   diff RECORD.json --list-metrics
//
// Joins entries by name and compares every deterministic metric (wall-
// clock metrics are informational and skipped; see obs/record.hpp for the
// naming conventions). Exits 0 within tolerance and 1 on a regression,
// including a gated number that is no longer a number; records that are
// not comparable (bench mismatch, missing entry or metric) exit 2.
// --list-metrics prints every metric of one record with its gating
// disposition (gated / informational / higher-is-better).
// --wall-report prints the *ungated* wall-clock metrics of both records
// side by side (current/baseline speedup, plus each record's
// wall-to-device ratio where the entry carries device_time_ms) — the
// simulator-throughput view a perf PR cares about; it never gates.
// The report titles keep the name "bench_diff" of the tool this
// subcommand replaced, so its stdout stays byte-identical.
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>

#include "obs/diff.hpp"
#include "report.hpp"

namespace accred::report {

namespace {

using obs::Json;

/// The record at `path` as the gate reads it: it names its bench and
/// every entry carries a "metrics" object.
Json load_gated(const Invocation& inv, const std::string& path) {
  return inv.read(path, [](const Json& record) {
    (void)record.at("bench").as_string();
    for (const Json& e : record.at("entries").elements()) {
      (void)e.at("metrics").items();
    }
    return record;
  });
}

void list_metrics(const Json& record) {
  for (const Json& e : record.at("entries").elements()) {
    const std::string& name = e.at("name").as_string();
    for (const auto& [key, value] : e.at("metrics").items()) {
      (void)value;
      const char* disposition =
          !obs::metric_is_gated(key)
              ? "informational (never gated)"
              : obs::metric_higher_is_better(key) ? "gated, higher is better"
                                                  : "gated, lower is better";
      std::cout << name << '\t' << key << '\t' << disposition << '\n';
    }
  }
}

/// The wall metrics of one entry: every "metrics" key containing "wall",
/// plus stats.wall_time_ms. Values in milliseconds ("..._ns" converted).
std::map<std::string, double> wall_metrics(const Json& entry) {
  std::map<std::string, double> out;
  if (const Json* metrics = entry.find("metrics")) {
    for (const auto& [key, value] : metrics->items()) {
      if (key.find("wall") == std::string::npos || !value.is_number()) continue;
      const bool ns = key.ends_with("_ns");
      if (!ns && !key.ends_with("_ms")) continue;  // times only, not rates
      out[ns ? key.substr(0, key.size() - 3) + "_ms" : key] =
          ns ? value.as_double() / 1e6 : value.as_double();
    }
  }
  if (const Json* stats = entry.find("stats")) {
    if (const Json* wall = stats->find("wall_time_ms"); wall != nullptr &&
                                                        wall->is_number()) {
      out["wall_time_ms"] = wall->as_double();
    }
  }
  return out;
}

/// stats.device_time_ms when present (the modeled device time the wall
/// clock is amortizing), else NaN.
double device_ms(const Json& entry) {
  if (const Json* stats = entry.find("stats")) {
    if (const Json* d = stats->find("device_time_ms");
        d != nullptr && d->is_number()) {
      return d->as_double();
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

void wall_report(const std::string& base_path, const Json& base,
                 const std::string& cur_path, const Json& cur) {
  std::cout << "bench_diff --wall-report: " << cur_path << " vs baseline "
            << base_path << " (informational, never gates)\n";
  std::cout << std::left << std::setw(36) << "entry/metric" << std::right
            << std::setw(12) << "base_ms" << std::setw(12) << "cur_ms"
            << std::setw(10) << "speedup" << std::setw(12) << "base_w/d"
            << std::setw(12) << "cur_w/d" << '\n';
  std::map<std::string, const Json*> cur_by_name;
  for (const Json& e : cur.at("entries").elements()) {
    cur_by_name[e.at("name").as_string()] = &e;
  }
  for (const Json& be : base.at("entries").elements()) {
    const std::string& name = be.at("name").as_string();
    const auto it = cur_by_name.find(name);
    if (it == cur_by_name.end()) {
      std::cout << name << ": (missing from current)\n";
      continue;
    }
    const std::map<std::string, double> bw = wall_metrics(be);
    const std::map<std::string, double> cw = wall_metrics(*it->second);
    const double bdev = device_ms(be);
    const double cdev = device_ms(*it->second);
    for (const auto& [metric, bms] : bw) {
      const auto cit = cw.find(metric);
      if (cit == cw.end()) continue;
      const double cms = cit->second;
      std::cout << std::left << std::setw(36) << (name + " " + metric)
                << std::right << std::fixed << std::setprecision(3)
                << std::setw(12) << bms << std::setw(12) << cms
                << std::setprecision(2) << std::setw(9)
                << (cms > 0 ? bms / cms : 0.0) << 'x';
      // Wall-to-device ratio: how many wall milliseconds the simulator
      // spends per modeled device millisecond (lower = faster simulator).
      if (bdev > 0 && cdev > 0) {
        std::cout << std::setprecision(1) << std::setw(12) << bms / bdev
                  << std::setw(12) << cms / cdev;
      }
      std::cout << '\n';
    }
  }
}

}  // namespace

int diff(const Invocation& inv) {
  const std::vector<std::string>& files = inv.files;
  if (inv.cli.has("list-metrics")) {
    if (files.size() != 1) throw UsageError();
    inv.read(files[0], list_metrics);
    return 0;
  }
  if (files.size() != 2) throw UsageError();
  if (inv.cli.has("wall-report")) {
    const Json base = inv.load(files[0]);
    wall_report(files[0], base, files[1], inv.load(files[1]));
    return 0;
  }

  obs::DiffOptions opts;
  try {
    opts.tolerance = obs::parse_tolerance(inv.cli.get("tolerance", "10%"));
  } catch (const std::exception& e) {
    throw UsageError(e.what());
  }
  const Json base = load_gated(inv, files[0]);
  const obs::DiffReport report =
      obs::diff_records(base, load_gated(inv, files[1]), opts);
  if (report.exit_code == 2) {
    throw obs::RecordError(files[1] + " vs baseline " + files[0] +
                           ": records not comparable: " +
                           report.schema_error);
  }
  std::cout << "bench_diff: " << files[1] << " vs baseline " << files[0]
            << " (tolerance " << opts.tolerance * 100.0 << "%)\n";
  obs::print_diff(std::cout, report, inv.cli.has("all"));
  return report.exit_code;
}

}  // namespace accred::report
