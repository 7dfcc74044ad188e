// accred_report — render and gate accred.bench JSON records.
//
//   accred_report diff BASELINE.json CURRENT.json [--tolerance 25%] [--all]
//   accred_report diff BASELINE.json CURRENT.json --wall-report
//   accred_report diff RECORD.json --list-metrics
//   accred_report prof RECORD.json [--entry NAME]
//   accred_report prof --compare A.json B.json [--entry NAME]
//   accred_report race RECORD.json [--entry NAME]
//   accred_report fault RECORD.json [--entry NAME]
//   accred_report metrics RECORD.json [--entry NAME] [--histograms]
//                         [--slo "HIST:STAT<=BOUND,..."]
//   accred_report metrics --compare BASELINE.json CURRENT.json [--entry NAME]
//   accred_report chaos RECORD.json
//   accred_report same A.json B.json [C.json ...]
//
// Exit codes, the same for every subcommand:
//   0 = report printed, or the gate passed;
//   1 = the gate failed (diff regression, race, undetected fault, SLO
//       breach, chaos verdict, records not the same);
//   2 = unreadable or malformed input (every record goes through
//       obs::load_record), nothing to judge, bad usage, or any other
//       exception.
// Each subcommand's verdict rules are in its report_*.cpp.
#include <iostream>
#include <string_view>

#include "report.hpp"

namespace accred::report {

obs::Json Invocation::load(const std::string& path) const {
  obs::Json record = obs::load_record(path);
  if (entry.empty()) return record;
  obs::Json kept = obs::Json::array();
  for (const obs::Json& e : record.at("entries").elements()) {
    if (e.at("name").as_string() == entry) kept.push(e);
  }
  if (kept.size() == 0) {
    throw obs::RecordError(path + ": no entry named \"" + entry + "\"");
  }
  record.set("entries", std::move(kept));
  return record;
}

}  // namespace accred::report

namespace {

using namespace accred;

struct Subcommand {
  std::string_view name;
  int (*run)(const report::Invocation&);
  bool takes_entry;
  std::vector<std::string_view> usage;  ///< argument lines
};

const std::vector<Subcommand>& subcommands() {
  static const std::vector<Subcommand> kAll = {
      {"diff", report::diff, false,
       {"BASELINE.json CURRENT.json [--tolerance 25%|0.25] [--all] "
        "[--wall-report]",
        "RECORD.json --list-metrics"}},
      {"prof", report::prof, true,
       {"RECORD.json [--entry NAME]", "--compare A.json B.json [--entry NAME]"}},
      {"race", report::race, true, {"RECORD.json [--entry NAME]"}},
      {"fault", report::fault, true, {"RECORD.json [--entry NAME]"}},
      {"metrics", report::metrics, true,
       {"RECORD.json [--entry NAME] [--histograms] "
        "[--slo \"HIST:STAT<=BOUND,...\"]",
        "--compare BASELINE.json CURRENT.json [--entry NAME]"}},
      {"chaos", report::chaos, false, {"RECORD.json"}},
      {"same", report::same, false, {"A.json B.json [C.json ...]"}},
  };
  return kAll;
}

/// The usage lines of `only`, or of every subcommand when it is null.
void usage(const Subcommand* only) {
  const char* lead = "usage: ";
  for (const Subcommand& s : subcommands()) {
    if (only != nullptr && &s != only) continue;
    for (std::string_view line : s.usage) {
      std::cerr << lead << "accred_report " << s.name << ' ' << line << '\n';
      lead = "       ";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Subcommand* sub = nullptr;
  try {
    const util::Cli cli(argc, argv,
                        {"help", "all", "wall-report", "list-metrics",
                         "compare", "histograms"});
    for (const Subcommand& s : subcommands()) {
      if (!cli.positional().empty() && cli.positional()[0] == s.name) {
        sub = &s;
      }
    }
    if (sub == nullptr || cli.has("help")) {
      usage(sub);
      return 2;
    }
    const report::Invocation inv{
        cli,
        {cli.positional().begin() + 1, cli.positional().end()},
        sub->takes_entry ? cli.get("entry", "") : ""};
    return sub->run(inv);
  } catch (const report::UsageError& e) {
    if (*e.what() == '\0') {
      usage(sub);
    } else {
      std::cerr << "accred_report: " << e.what() << '\n';
    }
  } catch (const std::exception& e) {
    std::cerr << "accred_report: " << e.what() << '\n';
  } catch (...) {
    std::cerr << "accred_report: unknown exception\n";
  }
  return 2;
}
