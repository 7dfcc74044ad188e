// The one main of every bench and example: parse the flags, apply
// --sim-threads, open the observability session, run the body and write
// its record, all under one top-level exception guard. No escaping
// exception may reach std::terminate (a "crash" in the fault campaign's
// contract — EXPERIMENTS.md): a LaunchError renders its full structured
// site, anything else prints what(), and the process exits 3. That code
// tells "died on an exception" from a body's own nonzero statuses
// (1 = a failed check or record write).
#pragma once

#include <exception>
#include <initializer_list>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gpusim/error.hpp"
#include "gpusim/pool.hpp"
#include "obs/record.hpp"
#include "util/cli.hpp"

namespace accred::util {

inline constexpr int kGuardedExitCode = 3;

/// Run `body(cli, record)` as the program `name`. The command line is
/// parsed with `bool_flags` declared boolean and `value_flags` declared
/// taking a value, next to the three every tool takes: `--sim-threads N`
/// becomes the process default (gpusim::set_default_sim_threads), and
/// `--json` / `--trace` open the obs::Session whose record the body
/// fills. Any other flag is a usage error before the body runs. Returns
/// the body's code, or 1 when the body returned 0 but the record or trace
/// could not be written. An escaping exception still writes the partial
/// record (the session closes as the stack unwinds), then prints one
/// `[fatal]` line and returns kGuardedExitCode. Usage:
///   int main(int argc, char** argv) {
///     return accred::util::tool_main(argc, argv, "fig12a_heat", {},
///                                    {"iters", "sizes", "tol"}, run);
///   }
inline int tool_main(int argc, char** argv, std::string name,
                     std::initializer_list<std::string_view> bool_flags,
                     std::initializer_list<std::string_view> value_flags,
                     int (*body)(const Cli&, obs::RunRecord&)) noexcept {
  try {
    std::vector<std::string_view> values = {"sim-threads", "json", "trace"};
    values.insert(values.end(), value_flags);
    const Cli cli(argc, argv, bool_flags, values);
    gpusim::set_default_sim_threads(cli.get_uint32("sim-threads", 0));
    obs::Session session(cli, std::move(name));
    const int code = body(cli, session.record());
    const bool written = session.finish();
    return code != 0 ? code : (written ? 0 : 1);
  } catch (const gpusim::LaunchError& e) {
    std::cerr << "[fatal] launch error: " << to_string(e.info()) << '\n';
  } catch (const std::exception& e) {
    std::cerr << "[fatal] " << e.what() << '\n';
  } catch (...) {
    std::cerr << "[fatal] unknown exception\n";
  }
  return kGuardedExitCode;
}

}  // namespace accred::util
