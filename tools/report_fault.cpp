// accred_report fault — renders (and gates on) the fault-injection
// sections of a record produced by running table2_testsuite or
// service_throughput with --faults.
//
//   fault RECORD.json [--entry NAME]
//       For every entry that ran with faults armed (or just NAME): the
//       fired FaultEvents (kind, block, warp, stage, detail), the
//       structured launch error if one surfaced, and the per-entry verdict.
//
// Verdict per fault-armed entry with at least one fired fault:
//   recovered   the run re-verified after retry/degradation ("recovered"
//               attr from the testsuite runner)
//   surfaced    a structured error is in the record (stats.error), or the
//               entry is explicitly flagged unverified (verified == "NO")
//   masked      a first-attempt pass proven harmless: a fault-free run of
//               the same cell produced the same result hash ("masked"
//               attr, written by table2_testsuite only on a hash match)
//   UNDETECTED  the fault fired yet the entry claims a clean first-attempt
//               pass with no such proof — silent corruption may have
//               escaped the guards
//
// Gate ("100% of injected faults detected, recovered or proven masked"):
// exit 0 when every fired fault was recovered, surfaced or masked, 1 on
// any UNDETECTED one. A
// record with no fault-armed entries, or in which nothing fired at all,
// exits 2 (an injection campaign that injected nothing must fail a gate,
// not pass it).
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "report.hpp"

namespace accred::report {

namespace {

struct FaultedEntry {
  std::string name;
  std::vector<std::string> events;  ///< pre-rendered fired faults
  std::string error;                ///< rendered stats.error ("" = none)
  bool injected_error = false;      ///< the error itself was injected
  bool recovered = false;
  bool flagged_unverified = false;  ///< verified == "NO" in the record
  bool masked = false;              ///< proven by a fault-free run's hash
};

std::string render_event(const obs::Json& e) {
  std::ostringstream os;
  os << e.at("kind").as_string() << " block"
     << obs::dim3_field_string(e, "block") << " warp "
     << e.at("warp").as_int();
  if (const obs::Json* stage = e.find("stage")) {
    os << " [" << stage->as_string() << ']';
  }
  os << ": " << e.at("detail").as_string();
  return os.str();
}

std::string render_error(const obs::Json& err) {
  std::ostringstream os;
  os << err.at("code").as_string() << ": " << err.at("message").as_string();
  if (err.find("block") != nullptr) {
    os << " @ block" << obs::dim3_field_string(err, "block") << " warp "
       << err.at("warp").as_int();
  }
  return os.str();
}

/// Every entry whose stats carry a "faults" block (i.e. the run was
/// fault-armed).
std::vector<FaultedEntry> faulted_entries(const obs::Json& record) {
  std::vector<FaultedEntry> out;
  for (const obs::Json& e : record.at("entries").elements()) {
    const obs::Json* stats = e.find("stats");
    if (stats == nullptr) continue;
    const obs::Json* faults = stats->find("faults");
    if (faults == nullptr) continue;  // entry ran without injection
    FaultedEntry fe;
    fe.name = e.at("name").as_string();
    for (const obs::Json& ev : faults->at("events").elements()) {
      fe.events.push_back(render_event(ev));
    }
    if (const obs::Json* err = stats->find("error")) {
      fe.error = render_error(*err);
      if (const obs::Json* inj = err->find("injected")) {
        fe.injected_error = inj->as_bool();
      }
    }
    if (const obs::Json* attrs = e.find("attrs")) {
      if (const obs::Json* r = attrs->find("recovered")) {
        fe.recovered = r->as_string() == "yes";
      }
      if (const obs::Json* v = attrs->find("verified")) {
        fe.flagged_unverified = v->as_string() != "yes";
      }
      if (const obs::Json* m = attrs->find("masked")) {
        fe.masked = m->as_string() == "yes";
      }
    }
    out.push_back(std::move(fe));
  }
  return out;
}

}  // namespace

int fault(const Invocation& inv) {
  if (inv.files.size() != 1) throw UsageError();
  const std::vector<FaultedEntry> entries =
      inv.read(inv.files[0], faulted_entries);
  if (entries.empty()) {
    throw obs::RecordError(inv.files[0] +
                           ": no fault-armed entries (run table2_testsuite "
                           "or service_throughput with --faults)");
  }

  std::size_t fired = 0;
  std::size_t undetected = 0;
  for (const FaultedEntry& e : entries) {
    const bool any_fired = !e.events.empty() || e.injected_error;
    const bool surfaced = !e.error.empty() || e.flagged_unverified;
    const char* verdict = !any_fired   ? "no fault fired"
                          : e.recovered ? "recovered"
                          : surfaced    ? "surfaced"
                          : e.masked    ? "masked"
                                        : "UNDETECTED";
    std::cout << e.name << ": " << e.events.size() << " fired fault(s) — "
              << verdict << '\n';
    for (const std::string& ev : e.events) std::cout << "    " << ev << '\n';
    if (!e.error.empty()) std::cout << "    error: " << e.error << '\n';
    if (any_fired) {
      fired += e.events.empty() ? 1 : e.events.size();
      if (!e.recovered && !surfaced && !e.masked) undetected += 1;
    }
  }
  std::cout << "== " << entries.size() << " fault-armed entr"
            << (entries.size() == 1 ? "y" : "ies") << ", " << fired
            << " fired fault(s), " << undetected << " undetected ==\n";
  if (fired == 0) {
    throw obs::RecordError(inv.files[0] +
                           ": faults were armed but none fired — the "
                           "campaign injected nothing");
  }
  return undetected > 0 ? 1 : 0;
}

}  // namespace accred::report
