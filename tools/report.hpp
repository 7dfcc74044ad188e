// accred_report: one command over accred.bench records.
//
//   accred_report <diff|prof|race|fault|metrics|chaos|same> ARGS...
//
// The dispatcher (accred_report.cpp) owns the usage text, each
// subcommand's flags, --entry filtering and the exit contract; each
// subcommand lives in its own report_*.cpp. A subcommand returns 0
// (report printed, gate passed) or 1 (gate failed). Anything else it
// throws, and the dispatcher exits 2: UsageError for bad usage, any other
// exception for unreadable or malformed input. Every record comes in
// through obs::load_record.
#pragma once

#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/record.hpp"
#include "util/cli.hpp"

namespace accred::report {

/// Bad usage. An empty message makes the dispatcher print the
/// subcommand's usage lines instead.
struct UsageError : std::runtime_error {
  UsageError() : std::runtime_error("") {}
  using std::runtime_error::runtime_error;
};

/// One command line, as a subcommand sees it.
struct Invocation {
  const util::Cli& cli;
  std::vector<std::string> files;  ///< positionals after the subcommand
  std::string entry;  ///< --entry NAME (subcommands that take it), or ""

  /// obs::load_record(path), keeping only the entry named `entry` when
  /// one is set (a record without it is an error).
  [[nodiscard]] obs::Json load(const std::string& path) const;

  /// load(path) and hand the record to `fn`. Whatever `fn` throws is
  /// rethrown as an obs::RecordError naming `path`.
  template <typename Fn>
  auto read(const std::string& path, Fn&& fn) const {
    const obs::Json record = load(path);
    try {
      return fn(record);
    } catch (const std::exception& e) {
      throw obs::RecordError(path + ": " + e.what());
    }
  }
};

int diff(const Invocation& inv);
int prof(const Invocation& inv);
int race(const Invocation& inv);
int fault(const Invocation& inv);
int metrics(const Invocation& inv);
int chaos(const Invocation& inv);
int same(const Invocation& inv);

}  // namespace accred::report
