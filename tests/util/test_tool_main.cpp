// Tests for util::tool_main, the one main of every bench and example: the
// exit-code contract (the body's code, 1 for a failed record write, 3
// for an escaping exception or an unknown flag), --sim-threads as the
// process default, --trace writing the body's spans, and the partial
// record an exception still leaves behind.
#include "util/main_guard.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "gpusim/pool.hpp"
#include "obs/json.hpp"
#include "obs/record.hpp"
#include "obs/trace.hpp"

namespace accred {
namespace {

struct Outcome {
  int code = 0;
  std::string err;  ///< everything written to std::cerr
};

/// Run tool_main over `args` (argv[0] is supplied) and capture stderr.
Outcome run_tool(std::vector<std::string> args,
                 int (*body)(const util::Cli&, obs::RunRecord&)) {
  std::vector<char*> argv;
  std::string prog = "tool";
  argv.push_back(prog.data());
  for (std::string& a : args) argv.push_back(a.data());
  std::ostringstream err;
  std::streambuf* old = std::cerr.rdbuf(err.rdbuf());
  const int code = util::tool_main(static_cast<int>(argv.size()),
                                   argv.data(), "tool", {"flag"}, {}, body);
  std::cerr.rdbuf(old);
  gpusim::set_default_sim_threads(0);
  return {code, err.str()};
}

std::uint32_t g_seen_threads = 0;

TEST(ToolMain, BodyCodePassesThrough) {
  const Outcome o = run_tool(
      {}, [](const util::Cli&, obs::RunRecord&) { return 5; });
  EXPECT_EQ(o.code, 5);
  EXPECT_EQ(o.err, "");
}

TEST(ToolMain, DeclaredBooleanDoesNotTakeTheNextArgument) {
  const Outcome o = run_tool(
      {"--flag", "positional"}, [](const util::Cli& cli, obs::RunRecord&) {
        return cli.get_bool("flag") && cli.positional().size() == 1 ? 0 : 9;
      });
  EXPECT_EQ(o.code, 0);
}

TEST(ToolMain, SimThreadsBecomesTheProcessDefault) {
  g_seen_threads = 0;
  const Outcome o = run_tool(
      {"--sim-threads", "3"}, [](const util::Cli&, obs::RunRecord&) {
        g_seen_threads = gpusim::default_sim_threads();
        return 0;
      });
  EXPECT_EQ(o.code, 0);
  EXPECT_EQ(g_seen_threads, 3u);
}

TEST(ToolMain, BadSimThreadsIsAUsageError) {
  const Outcome o = run_tool(
      {"--sim-threads", "-1"}, [](const util::Cli&, obs::RunRecord&) {
        ADD_FAILURE() << "the body must not run";
        return 0;
      });
  EXPECT_EQ(o.code, util::kGuardedExitCode);
  EXPECT_NE(o.err.find("[fatal] --sim-threads"), std::string::npos) << o.err;
}

TEST(ToolMain, UnknownFlagIsAUsageErrorBeforeTheBody) {
  const Outcome o = run_tool(
      {"--sim-threads", "1", "--jsno", "x.json"},
      [](const util::Cli&, obs::RunRecord&) {
        ADD_FAILURE() << "the body must not run";
        return 0;
      });
  EXPECT_EQ(o.code, util::kGuardedExitCode);
  EXPECT_EQ(o.err, "[fatal] unknown flag --jsno\n");
}

TEST(ToolMain, WritesTheRecordTheBodyFilled) {
  const std::string path = testing::TempDir() + "tool_main_record.json";
  std::remove(path.c_str());
  const Outcome o = run_tool(
      {"--json", path}, [](const util::Cli&, obs::RunRecord& record) {
        record.entry("row").metric("device_ms", 1.5);
        return 0;
      });
  EXPECT_EQ(o.code, 0);
  const obs::Json doc = obs::load_record(path);
  EXPECT_EQ(doc.at("bench").as_string(), "tool");
  ASSERT_EQ(doc.at("entries").size(), 1u);
  EXPECT_EQ(doc.at("entries").elements()[0].at("name").as_string(), "row");
}

TEST(ToolMain, UnwritableRecordExitsOne) {
  const std::string path =
      testing::TempDir() + "tool_main_no_such_dir/record.json";
  const Outcome o = run_tool(
      {"--json", path}, [](const util::Cli&, obs::RunRecord&) { return 0; });
  EXPECT_EQ(o.code, 1);
  EXPECT_NE(o.err.find("[obs] FAILED to write"), std::string::npos) << o.err;
}

TEST(ToolMain, BodyFailureWinsOverAFailedWrite) {
  const std::string path =
      testing::TempDir() + "tool_main_no_such_dir/record.json";
  const Outcome o = run_tool(
      {"--json", path}, [](const util::Cli&, obs::RunRecord&) { return 4; });
  EXPECT_EQ(o.code, 4);
}

TEST(ToolMain, EscapingExceptionExitsThreeAndKeepsThePartialRecord) {
  const std::string path = testing::TempDir() + "tool_main_partial.json";
  std::remove(path.c_str());
  const Outcome o = run_tool(
      {"--json", path}, [](const util::Cli&, obs::RunRecord& record) -> int {
        record.entry("before_the_throw");
        throw std::runtime_error("boom");
      });
  EXPECT_EQ(o.code, util::kGuardedExitCode);
  EXPECT_NE(o.err.find("[fatal] boom\n"), std::string::npos) << o.err;
  // The record is written while the stack unwinds, before the [fatal] line.
  EXPECT_LT(o.err.find("[obs] wrote"), o.err.find("[fatal]")) << o.err;
  const obs::Json doc = obs::load_record(path);
  ASSERT_EQ(doc.at("entries").size(), 1u);
  EXPECT_EQ(doc.at("entries").elements()[0].at("name").as_string(),
            "before_the_throw");
}

TEST(ToolMain, TraceFlagWritesTheTrace) {
  const std::string path = testing::TempDir() + "tool_main_trace.json";
  std::remove(path.c_str());
  const Outcome o = run_tool(
      {"--trace", path}, [](const util::Cli&, obs::RunRecord&) {
        obs::trace_complete("tool_main_probe", 0, obs::trace_now_us(), 1.0);
        return 0;
      });
  obs::trace_reset();
  EXPECT_EQ(o.code, 0);
  EXPECT_NE(o.err.find("[obs] wrote trace " + path), std::string::npos)
      << o.err;
  std::ifstream in(path);
  ASSERT_TRUE(in) << path;
  std::stringstream text;
  text << in.rdbuf();
  const obs::Json doc = obs::Json::parse(text.str());
  int probes = 0;
  for (const obs::Json& ev : doc.at("traceEvents").elements()) {
    const obs::Json* name = ev.find("name");
    if (name != nullptr && name->as_string() == "tool_main_probe") {
      EXPECT_EQ(ev.at("ph").as_string(), "X");
      ++probes;
    }
  }
  EXPECT_EQ(probes, 1);
  std::remove(path.c_str());
}

TEST(ToolMain, NonStandardExceptionExitsThree) {
  const Outcome o = run_tool({}, [](const util::Cli&, obs::RunRecord&) -> int {
    throw 42;
  });
  EXPECT_EQ(o.code, util::kGuardedExitCode);
  EXPECT_NE(o.err.find("[fatal] unknown exception"), std::string::npos);
}

}  // namespace
}  // namespace accred
