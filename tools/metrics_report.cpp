// metrics_report — render and gate the "telemetry" section of a schema-v3
// accred.bench record (the service's metrics registry; DESIGN.md §14).
//
//   metrics_report RECORD.json [--entry NAME] [--histograms]
//                  [--slo "HIST:STAT<=BOUND,..."]
//   metrics_report --compare BASELINE.json CURRENT.json [--entry NAME]
//
// Default output: the service-level counters and gauges, a per-tenant
// latency table, service latency percentiles, and ASCII renderings of the
// service/* histograms (--histograms renders every histogram, tenants
// included). All values come from the registry dump, so two runs of the
// same workload print byte-equal reports for any workers/--sim-threads.
//
// --slo gates the report: a comma-separated list of histogram statistics
// with upper bounds, e.g.
//     --slo "service/e2e_ms:p99<=0.5,service/queue_wait_ms:p50<=0.25"
// where STAT is pNN (percentile, 0 < NN <= 100), mean, or max, and BOUND
// is a number in the histogram's value units (milliseconds for the
// latency histograms). Breaches print FAIL lines and exit 1 — the CI hook
// for latency objectives; a malformed clause is bad usage.
//
// --compare prints baseline-vs-current percentiles side by side for every
// histogram the two records share (informational, never gates; an --slo
// list still applies, to CURRENT).
//
// Exit codes: 0 = report printed (SLOs, if any, all pass); 1 = SLO
// breach; 2 = unreadable input, no telemetry section, or bad usage.
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "util/cli.hpp"
#include "util/main_guard.hpp"

namespace {

using namespace accred;

/// One record entry's parsed telemetry section.
struct Telemetry {
  std::string entry_name;
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, obs::Histogram> histograms;
};

std::optional<obs::Json> load_record(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "metrics_report: cannot read " << path << '\n';
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return obs::Json::parse(buf.str());
  } catch (const std::exception& ex) {
    std::cerr << "metrics_report: " << path << ": " << ex.what() << '\n';
    return std::nullopt;
  }
}

/// The telemetry of `entry_name` (or of the first entry carrying one).
std::optional<Telemetry> extract(const obs::Json& record,
                                 const std::string& entry_name,
                                 const std::string& path) {
  using obs::Json;
  try {
    for (const Json& e : record.at("entries").elements()) {
      const std::string& name = e.at("name").as_string();
      if (!entry_name.empty() && name != entry_name) continue;
      const Json* tel = e.find("telemetry");
      if (tel == nullptr) continue;
      Telemetry t;
      t.entry_name = name;
      if (const Json* c = tel->find("counters")) {
        for (const auto& [key, v] : c->items()) t.counters[key] = v.as_int();
      }
      if (const Json* g = tel->find("gauges")) {
        for (const auto& [key, v] : g->items()) t.gauges[key] = v.as_int();
      }
      if (const Json* h = tel->find("histograms")) {
        for (const auto& [key, v] : h->items()) {
          t.histograms.emplace(key, obs::Histogram::from_json(v));
        }
      }
      return t;
    }
  } catch (const std::exception& ex) {
    std::cerr << "metrics_report: " << path << ": " << ex.what() << '\n';
    return std::nullopt;
  }
  std::cerr << "metrics_report: " << path << ": no telemetry section"
            << (entry_name.empty() ? std::string()
                                   : " in entry \"" + entry_name + "\"")
            << " (run the bench with --metrics or ACCRED_METRICS=1)\n";
  return std::nullopt;
}

struct Slo {
  std::string metric;
  std::string stat;  ///< as written: pNN, mean, or max
  double q = 0;      ///< NN / 100 for a pNN statistic
  double bound = 0;
};

/// `text` as a finite number, or nullopt unless all of it parses.
std::optional<double> parse_number(const std::string& text) {
  std::size_t used = 0;
  double v = 0;
  try {
    v = std::stod(text, &used);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (used != text.size() || !std::isfinite(v)) return std::nullopt;
  return v;
}

/// Parse "HIST:STAT<=BOUND,..." (metric names never contain ':'). Every
/// clause is checked here, so a bad one is a usage error (exit 2) before
/// any record is read.
std::vector<Slo> parse_slos(const std::string& spec) {
  std::vector<Slo> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string part =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? spec.size() : comma + 1;
    if (part.empty()) continue;
    const auto bad = [&](const std::string& why) {
      return std::runtime_error("metrics_report: bad SLO \"" + part +
                                "\": " + why);
    };
    const std::size_t colon = part.rfind(':');
    const std::size_t le = part.find("<=");
    if (colon == std::string::npos || le == std::string::npos || le < colon) {
      throw bad("expected HIST:STAT<=BOUND");
    }
    Slo s;
    s.metric = part.substr(0, colon);
    s.stat = part.substr(colon + 1, le - colon - 1);
    if (s.stat != "mean" && s.stat != "max") {
      const std::optional<double> nn =
          s.stat.starts_with('p') ? parse_number(s.stat.substr(1))
                                  : std::nullopt;
      if (!nn || !(*nn > 0 && *nn <= 100)) {
        throw bad("unknown statistic \"" + s.stat +
                  "\" (expected pNN with 0 < NN <= 100, mean, or max)");
      }
      s.q = *nn / 100.0;
    }
    const std::optional<double> bound = parse_number(part.substr(le + 2));
    if (!bound) {
      throw bad("bound \"" + part.substr(le + 2) + "\" is not a finite number");
    }
    s.bound = *bound;
    out.push_back(std::move(s));
  }
  return out;
}

/// A parsed SLO's statistic of `h`, in value units.
double stat_of(const obs::Histogram& h, const Slo& s) {
  if (s.stat == "mean") return h.mean();
  if (s.stat == "max") {
    return h.scale() > 0 ? static_cast<double>(h.max_units()) / h.scale() : 0;
  }
  return h.percentile(s.q);
}

/// Check every SLO against `t`; prints one PASS/FAIL line each.
/// Returns false on any breach (or on a missing histogram).
bool check_slos(const Telemetry& t, const std::vector<Slo>& slos) {
  bool ok = true;
  for (const Slo& s : slos) {
    const auto it = t.histograms.find(s.metric);
    if (it == t.histograms.end()) {
      std::cout << "SLO FAIL  " << s.metric << ":" << s.stat
                << " — histogram not in telemetry\n";
      ok = false;
      continue;
    }
    const double v = stat_of(it->second, s);
    const bool pass = v <= s.bound;
    std::cout << "SLO " << (pass ? "PASS" : "FAIL") << "  " << s.metric << ":"
              << s.stat << " = " << v << " (bound " << s.bound << ")\n";
    ok = ok && pass;
  }
  return ok;
}

/// ASCII bar chart over the nonzero buckets: one row per bucket,
/// [lower, next-lower) edges in value units, bar scaled to the modal count.
void render_histogram(const std::string& name, const obs::Histogram& h) {
  constexpr int kBarWidth = 40;
  const auto buckets = h.nonzero_buckets();
  std::cout << name << "  (count " << h.count() << ", mean " << h.mean()
            << ", p50 " << h.percentile(0.50) << ", p99 " << h.percentile(0.99)
            << ")\n";
  if (buckets.empty()) return;
  std::uint64_t peak = 0;
  for (const auto& [idx, n] : buckets) peak = std::max(peak, n);
  for (const auto& [idx, n] : buckets) {
    const double lo =
        static_cast<double>(obs::Histogram::bucket_lower_bound(idx)) /
        h.scale();
    const double hi =
        idx + 1 < obs::Histogram::kBuckets
            ? static_cast<double>(obs::Histogram::bucket_lower_bound(idx + 1)) /
                  h.scale()
            : std::numeric_limits<double>::infinity();
    const int bar = std::max<int>(
        1, static_cast<int>(kBarWidth * n / peak));
    std::cout << "  [" << std::setw(11) << lo << ", " << std::setw(11) << hi
              << ")  " << std::string(static_cast<std::size_t>(bar), '#')
              << ' ' << n << '\n';
  }
}

/// Tenant names appearing as "tenant/<name>/..." histogram keys.
std::vector<std::string> tenant_names(const Telemetry& t) {
  std::vector<std::string> out;
  for (const auto& [key, h] : t.histograms) {
    (void)h;
    if (!key.starts_with("tenant/")) continue;
    const std::size_t slash = key.find('/', 7);
    if (slash == std::string::npos) continue;
    const std::string name = key.substr(7, slash - 7);
    if (out.empty() || out.back() != name) out.push_back(name);
  }
  return out;
}

const obs::Histogram* find_hist(const Telemetry& t, const std::string& name) {
  const auto it = t.histograms.find(name);
  return it == t.histograms.end() ? nullptr : &it->second;
}

void report(const Telemetry& t, bool all_histograms) {
  std::cout << "== telemetry: entry \"" << t.entry_name << "\" ==\n";
  if (!t.counters.empty()) {
    std::cout << "counters:\n";
    for (const auto& [key, v] : t.counters) {
      std::cout << "  " << std::left << std::setw(32) << key << std::right
                << std::setw(10) << v << '\n';
    }
  }
  if (!t.gauges.empty()) {
    std::cout << "gauges:\n";
    for (const auto& [key, v] : t.gauges) {
      std::cout << "  " << std::left << std::setw(32) << key << std::right
                << std::setw(10) << v << '\n';
    }
  }

  const std::vector<std::string> tenants = tenant_names(t);
  if (!tenants.empty()) {
    std::cout << "per-tenant latency (virtual timeline, ms):\n"
              << "  " << std::left << std::setw(12) << "tenant" << std::right
              << std::setw(8) << "jobs" << std::setw(12) << "wait_p50"
              << std::setw(12) << "e2e_p50" << std::setw(12) << "e2e_p99"
              << std::setw(12) << "device_p50" << '\n';
    for (const std::string& name : tenants) {
      const obs::Histogram* wait =
          find_hist(t, "tenant/" + name + "/queue_wait_ms");
      const obs::Histogram* e2e = find_hist(t, "tenant/" + name + "/e2e_ms");
      const obs::Histogram* dev =
          find_hist(t, "tenant/" + name + "/device_ms");
      std::cout << "  " << std::left << std::setw(12) << name << std::right
                << std::setw(8) << (e2e ? e2e->count() : 0) << std::setw(12)
                << (wait ? wait->percentile(0.50) : 0) << std::setw(12)
                << (e2e ? e2e->percentile(0.50) : 0) << std::setw(12)
                << (e2e ? e2e->percentile(0.99) : 0) << std::setw(12)
                << (dev ? dev->percentile(0.50) : 0) << '\n';
    }
  }

  std::cout << "histograms:\n";
  for (const auto& [key, h] : t.histograms) {
    if (!all_histograms && !key.starts_with("service/")) continue;
    render_histogram(key, h);
  }
}

int compare(const Telemetry& base, const Telemetry& cur) {
  std::cout << "== telemetry compare: entry \"" << cur.entry_name
            << "\" (informational) ==\n";
  std::cout << std::left << std::setw(32) << "counter" << std::right
            << std::setw(12) << "base" << std::setw(12) << "cur"
            << std::setw(10) << "delta" << '\n';
  for (const auto& [key, bv] : base.counters) {
    const auto it = cur.counters.find(key);
    if (it == cur.counters.end()) continue;
    std::cout << std::left << std::setw(32) << key << std::right
              << std::setw(12) << bv << std::setw(12) << it->second
              << std::setw(10) << it->second - bv << '\n';
  }
  std::cout << std::left << std::setw(32) << "histogram p50/p99" << std::right
            << std::setw(12) << "base_p50" << std::setw(12) << "cur_p50"
            << std::setw(12) << "base_p99" << std::setw(12) << "cur_p99"
            << '\n';
  for (const auto& [key, bh] : base.histograms) {
    const auto it = cur.histograms.find(key);
    if (it == cur.histograms.end()) continue;
    std::cout << std::left << std::setw(32) << key << std::right
              << std::setw(12) << bh.percentile(0.50) << std::setw(12)
              << it->second.percentile(0.50) << std::setw(12)
              << bh.percentile(0.99) << std::setw(12)
              << it->second.percentile(0.99) << '\n';
  }
  return 0;
}

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"compare", "histograms", "help"});
  const std::string entry = cli.get("entry", "");
  const std::string slo_spec = cli.get("slo", "");
  const bool is_compare = cli.has("compare");
  const std::size_t want = is_compare ? 2 : 1;
  if (cli.has("help") || cli.positional().size() != want) {
    std::cerr << "usage: metrics_report RECORD.json [--entry NAME] "
                 "[--histograms] [--slo \"HIST:STAT<=BOUND,...\"]\n"
                 "       metrics_report --compare BASELINE.json CURRENT.json "
                 "[--entry NAME]\n";
    return 2;
  }

  std::vector<Slo> slos;
  try {
    slos = parse_slos(slo_spec);
  } catch (const std::exception& ex) {
    std::cerr << ex.what() << '\n';
    return 2;
  }

  if (is_compare) {
    const std::optional<obs::Json> base = load_record(cli.positional()[0]);
    const std::optional<obs::Json> cur = load_record(cli.positional()[1]);
    if (!base || !cur) return 2;
    const std::optional<Telemetry> bt =
        extract(*base, entry, cli.positional()[0]);
    const std::optional<Telemetry> ct =
        extract(*cur, entry, cli.positional()[1]);
    if (!bt || !ct) return 2;
    compare(*bt, *ct);
    return check_slos(*ct, slos) ? 0 : 1;
  }

  const std::optional<obs::Json> record = load_record(cli.positional()[0]);
  if (!record) return 2;
  const std::optional<Telemetry> t =
      extract(*record, entry, cli.positional()[0]);
  if (!t) return 2;
  report(*t, cli.has("histograms"));
  return check_slos(*t, slos) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return accred::util::guarded_main([&] { return run(argc, argv); });
}
