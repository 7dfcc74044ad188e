// racecheck_report — renders (and gates on) the race-detection sections of
// accred.bench JSON records produced by running a bench with --racecheck /
// ACCRED_RACECHECK=1.
//
//   racecheck_report RECORD.json [--entry NAME]
//       Print a per-entry race summary — the conflicting-pair count from
//       each entry's stats plus every recorded RaceReport (hazard kind,
//       memory space, address, block, both thread coordinates and
//       prof_scope stages) — for every racechecked entry, or just NAME.
//
// Exit codes (CI gate semantics):
//   0 = every racechecked entry is race-free
//   1 = at least one race was reported
//   2 = unreadable/malformed input, no racechecked entries (the detector
//       silently off must fail a gate, not pass it), or bad usage.
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

struct CheckedEntry {
  std::string name;
  std::int64_t races = 0;
  std::vector<std::string> reports;  ///< pre-rendered one-liners
};

std::string render_access(const obs::Json& a) {
  std::ostringstream os;
  os << 't' << obs::dim3_field_string(a, "thread") << ' '
     << a.at("access").as_string() << " [" << a.at("stage").as_string()
     << ']';
  return os.str();
}

std::string render_report(const obs::Json& r) {
  std::ostringstream os;
  os << r.at("kind").as_string() << ' ' << r.at("space").as_string() << "+0x"
     << std::hex << r.at("addr").as_int() << std::dec << " block"
     << obs::dim3_field_string(r, "block") << ": "
     << render_access(r.at("first")) << " vs "
     << render_access(r.at("second"));
  return os.str();
}

/// Pull every entry whose stats carry a "races" counter (i.e. the launch
/// ran under racecheck). Returns false on IO/parse/schema problems.
bool load_entries(const std::string& path, std::vector<CheckedEntry>& out) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "racecheck_report: cannot read " << path << '\n';
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    const obs::Json j = obs::Json::parse(buf.str());
    if (const obs::Json* schema = j.find("schema");
        schema == nullptr || schema->as_string() != obs::kBenchSchema) {
      std::cerr << "racecheck_report: " << path << " is not an "
                << obs::kBenchSchema << " record\n";
      return false;
    }
    for (const obs::Json& e : j.at("entries").elements()) {
      const obs::Json* stats = e.find("stats");
      if (stats == nullptr) continue;
      const obs::Json* races = stats->find("races");
      if (races == nullptr) continue;  // entry did not run under racecheck
      CheckedEntry ce;
      ce.name = e.at("name").as_string();
      ce.races = races->as_int();
      if (const obs::Json* reports = e.find("races")) {
        for (const obs::Json& r : reports->elements()) {
          ce.reports.push_back(render_report(r));
        }
      }
      out.push_back(std::move(ce));
    }
  } catch (const std::exception& ex) {
    std::cerr << "racecheck_report: " << path << ": " << ex.what() << '\n';
    return false;
  }
  return true;
}

void usage() {
  std::cerr << "usage: racecheck_report RECORD.json [--entry NAME]\n";
}

}  // namespace

#include "util/main_guard.hpp"

namespace {

int run(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"help"});
  if (cli.has("help") || cli.positional().size() != 1) {
    usage();
    return 2;
  }

  std::vector<CheckedEntry> entries;
  if (!load_entries(cli.positional()[0], entries)) return 2;

  const std::string only = cli.get("entry", "");
  if (!only.empty()) {
    std::erase_if(entries,
                  [&](const CheckedEntry& e) { return e.name != only; });
  }
  if (entries.empty()) {
    std::cerr << "racecheck_report: no racechecked entries"
              << (only.empty() ? "" : " named " + only)
              << " (run the bench with --racecheck or ACCRED_RACECHECK=1)\n";
    return 2;
  }

  std::int64_t total = 0;
  for (const CheckedEntry& e : entries) {
    total += e.races;
    std::cout << e.name << ": " << e.races << " race(s)\n";
    for (const std::string& r : e.reports) std::cout << "    " << r << '\n';
  }
  std::cout << "== " << entries.size() << " entr"
            << (entries.size() == 1 ? "y" : "ies") << " checked, " << total
            << " race(s) total ==\n";
  return total > 0 ? 1 : 0;
}

}  // namespace

// All benches, examples, and tools share one top-level exception guard:
// any escaping error prints a structured line and exits non-zero instead
// of crashing (util/main_guard.hpp).
int main(int argc, char** argv) {
  return accred::util::guarded_main([&] { return run(argc, argv); });
}
