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
//       obs::load_record), nothing to judge, bad usage (a flag the
//       subcommand does not take included), or any other exception.
// Each subcommand's verdict rules are in its report_*.cpp.
#include <algorithm>
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
  std::vector<std::string_view> bool_flags;   ///< besides --help
  std::vector<std::string_view> value_flags;  ///< "entry": --entry NAME
  std::vector<std::string_view> usage;        ///< argument lines
};

const std::vector<Subcommand>& subcommands() {
  static const std::vector<Subcommand> kAll = {
      {"diff", report::diff, {"all", "wall-report", "list-metrics"},
       {"tolerance"},
       {"BASELINE.json CURRENT.json [--tolerance 25%|0.25] [--all] "
        "[--wall-report]",
        "RECORD.json --list-metrics"}},
      {"prof", report::prof, {"compare"}, {"entry"},
       {"RECORD.json [--entry NAME]", "--compare A.json B.json [--entry NAME]"}},
      {"race", report::race, {}, {"entry"}, {"RECORD.json [--entry NAME]"}},
      {"fault", report::fault, {}, {"entry"}, {"RECORD.json [--entry NAME]"}},
      {"metrics", report::metrics, {"compare", "histograms"}, {"entry", "slo"},
       {"RECORD.json [--entry NAME] [--histograms] "
        "[--slo \"HIST:STAT<=BOUND,...\"]",
        "--compare BASELINE.json CURRENT.json [--entry NAME]"}},
      {"chaos", report::chaos, {}, {}, {"RECORD.json"}},
      {"same", report::same, {}, {}, {"A.json B.json [C.json ...]"}},
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
    for (const Subcommand& s : subcommands()) {
      if (argc > 1 && argv[1] == s.name) sub = &s;
    }
    if (sub == nullptr) {
      usage(nullptr);
      return 2;
    }
    std::vector<std::string_view> bool_flags = sub->bool_flags;
    bool_flags.push_back("help");
    // The subcommand stands in for the program name: Cli skips it.
    const util::Cli cli(argc - 1, argv + 1, bool_flags, sub->value_flags);
    if (cli.has("help")) {
      usage(sub);
      return 2;
    }
    const bool takes_entry =
        std::ranges::find(sub->value_flags, "entry") != sub->value_flags.end();
    const report::Invocation inv{cli, cli.positional(),
                                 takes_entry ? cli.get("entry", "") : ""};
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
