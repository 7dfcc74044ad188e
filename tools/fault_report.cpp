// fault_report — renders (and gates on) the fault-injection sections of
// accred.bench JSON records produced by running a bench with --faults /
// ACCRED_FAULTS.
//
//   fault_report RECORD.json [--entry NAME]
//       For every entry that ran with faults armed (or just NAME): the
//       fired FaultEvents (kind, block, warp, stage, detail), the
//       structured launch error if one surfaced, and the per-entry verdict.
//
// Verdict per fault-armed entry with at least one fired fault:
//   recovered   the run re-verified after retry/degradation ("recovered"
//               attr from the testsuite runner)
//   surfaced    a structured error is in the record (stats.error), or the
//               entry is explicitly flagged unverified (verified == "NO")
//   UNDETECTED  the fault fired yet the entry claims a clean first-attempt
//               pass — silent corruption escaped the guards
//
// Exit codes (CI gate semantics — "100% of injected faults detected or
// recovered"):
//   0 = every fired fault was recovered or surfaced
//   1 = at least one fired fault was neither (UNDETECTED)
//   2 = unreadable/malformed input, no fault-armed entries, or nothing
//       fired at all (an injection campaign that injected nothing must
//       fail a gate, not pass it), or bad usage.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/record.hpp"
#include "util/cli.hpp"

namespace {

using namespace accred;

struct FaultedEntry {
  std::string name;
  std::vector<std::string> events;  ///< pre-rendered fired faults
  std::string error;                ///< rendered stats.error ("" = none)
  bool injected_error = false;      ///< the error itself was injected
  bool recovered = false;
  bool flagged_unverified = false;  ///< verified == "NO" in the record
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

/// Pull every entry whose stats carry a "faults" block (i.e. the run was
/// fault-armed). Returns false on IO/parse/schema problems.
bool load_entries(const std::string& path, std::vector<FaultedEntry>& out) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "fault_report: cannot read " << path << '\n';
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    const obs::Json j = obs::Json::parse(buf.str());
    if (const obs::Json* schema = j.find("schema");
        schema == nullptr || schema->as_string() != obs::kBenchSchema) {
      std::cerr << "fault_report: " << path << " is not an "
                << obs::kBenchSchema << " record\n";
      return false;
    }
    for (const obs::Json& e : j.at("entries").elements()) {
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
      }
      out.push_back(std::move(fe));
    }
  } catch (const std::exception& ex) {
    std::cerr << "fault_report: " << path << ": " << ex.what() << '\n';
    return false;
  }
  return true;
}

void usage() { std::cerr << "usage: fault_report RECORD.json [--entry NAME]\n"; }

}  // namespace

#include "util/main_guard.hpp"

namespace {

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"help"});
  if (cli.has("help") || cli.positional().size() != 1) {
    usage();
    return 2;
  }

  std::vector<FaultedEntry> entries;
  if (!load_entries(cli.positional()[0], entries)) return 2;

  const std::string only = cli.get("entry", "");
  if (!only.empty()) {
    std::erase_if(entries,
                  [&](const FaultedEntry& e) { return e.name != only; });
  }
  if (entries.empty()) {
    std::cerr << "fault_report: no fault-armed entries"
              << (only.empty() ? "" : " named " + only)
              << " (run the bench with --faults or ACCRED_FAULTS)\n";
    return 2;
  }

  std::size_t fired = 0;
  std::size_t undetected = 0;
  for (const FaultedEntry& e : entries) {
    const bool any_fired = !e.events.empty() || e.injected_error;
    const char* verdict =
        !any_fired      ? "no fault fired"
        : e.recovered   ? "recovered"
        : !e.error.empty() || e.flagged_unverified ? "surfaced"
                                                   : "UNDETECTED";
    std::cout << e.name << ": " << e.events.size() << " fired fault(s) — "
              << verdict << '\n';
    for (const std::string& ev : e.events) std::cout << "    " << ev << '\n';
    if (!e.error.empty()) std::cout << "    error: " << e.error << '\n';
    if (any_fired) {
      fired += e.events.empty() ? 1 : e.events.size();
      if (!e.recovered && e.error.empty() && !e.flagged_unverified) {
        undetected += 1;
      }
    }
  }
  std::cout << "== " << entries.size() << " fault-armed entr"
            << (entries.size() == 1 ? "y" : "ies") << ", " << fired
            << " fired fault(s), " << undetected << " undetected ==\n";
  if (fired == 0) {
    std::cerr << "fault_report: faults were armed but none fired — the "
                 "campaign injected nothing\n";
    return 2;
  }
  return undetected > 0 ? 1 : 0;
}

}  // namespace

// All benches, examples, and tools share one top-level exception guard:
// any escaping error prints a structured line and exits non-zero instead
// of crashing (util/main_guard.hpp).
int main(int argc, char** argv) {
  return accred::util::guarded_main([&] { return run(argc, argv); });
}
