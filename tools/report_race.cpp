// accred_report race — renders (and gates on) the race-detection sections
// of a record produced by running table2_testsuite or
// fig6_8_layout_ablation with --racecheck.
//
//   race RECORD.json [--entry NAME]
//       Print a per-entry race summary — the conflicting-pair count from
//       each entry's stats plus every recorded RaceReport (hazard kind,
//       memory space, address, block, both thread coordinates and
//       prof_scope stages) — for every racechecked entry, or just NAME.
//
// Gate: exit 0 when every racechecked entry is race-free, 1 on any race;
// a record with no racechecked entries exits 2 (the detector silently off
// must fail a gate, not pass it).
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "report.hpp"

namespace accred::report {

namespace {

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

/// Every entry whose stats carry a "races" counter (i.e. the launch ran
/// under racecheck).
std::vector<CheckedEntry> checked_entries(const obs::Json& record) {
  std::vector<CheckedEntry> out;
  for (const obs::Json& e : record.at("entries").elements()) {
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
  return out;
}

}  // namespace

int race(const Invocation& inv) {
  if (inv.files.size() != 1) throw UsageError();
  const std::vector<CheckedEntry> entries =
      inv.read(inv.files[0], checked_entries);
  if (entries.empty()) {
    throw obs::RecordError(inv.files[0] +
                           ": no racechecked entries (run table2_testsuite "
                           "or fig6_8_layout_ablation with --racecheck)");
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

}  // namespace accred::report
