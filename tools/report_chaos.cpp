// accred_report chaos — renders (and gates on) the chaos-campaign record
// produced by bench/service_chaos --json.
//
//   chaos RECORD.json
//
// Verdicts (CI gate semantics — "100% structured resolution, breakers on
// schedule, clean tenants untouched"):
//   * liveness     every service drained (undrained == 0 everywhere)
//   * schedule     every metric in the record's "expect" entry equals the
//                  same-named metric of the "chaos" entry — breaker opens,
//                  fast-fails, cancellations, deadline expiries, structured
//                  failures all land exactly as the campaign scripted them
//   * accounting   submitted == admitted + rejections, and every admitted
//                  job resolved to exactly one terminal status (no job
//                  vanished, none double-counted)
//   * shedding     the overload phase shed at least its scheduled minimum,
//                  and its books balance (admitted == completed + shed)
//   * isolation    the chaos run's clean-tenant checksum is bit-identical
//                  to the no-chaos baseline replay's
//
// Gate: exit 0 when all verdicts pass, 1 when any fails; a record missing
// a campaign section exits 2 (a campaign that cannot be judged must fail
// the gate, not pass it).
#include <cmath>
#include <iostream>
#include <sstream>
#include <string>

#include "report.hpp"

namespace accred::report {

namespace {

struct Verdicts {
  std::size_t failed = 0;

  void check(bool ok, const std::string& what) {
    std::cout << (ok ? "  ok    " : "  FAIL  ") << what << '\n';
    if (!ok) ++failed;
  }
};

const obs::Json* find_entry(const obs::Json& record, const std::string& name) {
  for (const obs::Json& e : record.at("entries").elements()) {
    if (e.at("name").as_string() == name) return &e;
  }
  return nullptr;
}

/// A metric from an entry's "metrics" object; NaN when absent.
double metric(const obs::Json& entry, const std::string& name) {
  if (const obs::Json* metrics = entry.find("metrics")) {
    if (const obs::Json* m = metrics->find(name)) return m->as_double();
  }
  return std::nan("");
}

std::string attr(const obs::Json& entry, const std::string& name) {
  if (const obs::Json* attrs = entry.find("attrs")) {
    if (const obs::Json* a = attrs->find(name)) return a->as_string();
  }
  return "";
}

/// Print every verdict on the campaign in `record`; returns how many
/// failed.
std::size_t judge(const obs::Json& record) {
  const obs::Json* chaos = find_entry(record, "chaos");
  const obs::Json* expect = find_entry(record, "expect");
  const obs::Json* shed = find_entry(record, "shed");
  const obs::Json* baseline = find_entry(record, "baseline");
  if (chaos == nullptr || expect == nullptr || shed == nullptr ||
      baseline == nullptr) {
    throw std::runtime_error(
        "record is missing a campaign section (need chaos, expect, shed, "
        "baseline entries)");
  }

  Verdicts v;
  std::cout << "== chaos schedule ==\n";
  const obs::Json* expected = expect->find("metrics");
  if (expected == nullptr || expected->items().empty()) {
    throw std::runtime_error("expect entry carries no metrics");
  }
  for (const auto& [name, want] : expected->items()) {
    const double got = metric(*chaos, name);
    std::ostringstream os;
    os << "chaos/" << name << " == " << want.as_double() << " (got "
       << got << ")";
    v.check(got == want.as_double(), os.str());
  }

  std::cout << "== accounting ==\n";
  const double submitted = metric(*chaos, "submitted");
  const double admitted = metric(*chaos, "admitted");
  const double rejected = metric(*chaos, "rejected_total");
  const double resolved =
      metric(*chaos, "completed") + metric(*chaos, "failed") +
      metric(*chaos, "cancelled") + metric(*chaos, "deadline_exceeded") +
      metric(*chaos, "shed");
  v.check(submitted == admitted + rejected,
          "submitted == admitted + rejections");
  v.check(admitted == resolved,
          "every admitted job resolved to one terminal status");

  std::cout << "== shedding ==\n";
  const double shed_total = metric(*shed, "shed");
  const double shed_min = metric(*shed, "shed_min");
  {
    std::ostringstream os;
    os << "shed " << shed_total << " >= scheduled minimum " << shed_min;
    v.check(shed_total >= shed_min && shed_min > 0, os.str());
  }
  v.check(metric(*shed, "admitted") ==
              metric(*shed, "completed") + shed_total,
          "shed-phase books balance (admitted == completed + shed)");
  v.check(metric(*shed, "undrained") == 0, "shed service drained");
  v.check(metric(*chaos, "undrained") == 0, "chaos service drained");
  v.check(metric(*baseline, "undrained") == 0, "baseline service drained");

  std::cout << "== isolation ==\n";
  const std::string chaos_sum = attr(*chaos, "clean_checksum");
  const std::string base_sum = attr(*baseline, "clean_checksum");
  if (chaos_sum.empty() || base_sum.empty()) {
    throw std::runtime_error("missing clean_checksum attr");
  }
  v.check(chaos_sum == base_sum,
          "clean-tenant checksum " + chaos_sum + " == baseline " + base_sum);
  return v.failed;
}

}  // namespace

int chaos(const Invocation& inv) {
  if (inv.files.size() != 1) throw UsageError();
  const std::size_t failed = inv.read(inv.files[0], judge);
  if (failed == 0) {
    std::cout << "== chaos campaign: all verdicts pass ==\n";
    return 0;
  }
  std::cout << "== chaos campaign: " << failed << " verdict(s) FAILED ==\n";
  return 1;
}

}  // namespace accred::report
