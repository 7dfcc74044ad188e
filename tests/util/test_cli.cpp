// Tests for the CLI flag parser, focused on the two historical footguns:
// boolean flags silently swallowing the next positional, and raw
// stoll/stod exceptions surfacing without the flag name.
#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace accred {
namespace {

util::Cli make_cli(std::vector<std::string> args,
                   std::initializer_list<std::string_view> bool_flags = {}) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  static std::vector<char*> argv;
  argv.clear();
  argv.push_back(const_cast<char*>("prog"));
  for (auto& a : storage) argv.push_back(a.data());
  return util::Cli(static_cast<int>(argv.size()), argv.data(), bool_flags);
}

TEST(Cli, DeclaredBooleanDoesNotSwallowPositional) {
  // The original bug: `bench --profile out.json` bound "out.json" as the
  // value of --profile and lost the positional.
  auto cli = make_cli({"--profile", "out.json"}, {"profile"});
  EXPECT_TRUE(cli.get_bool("profile"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "out.json");
}

TEST(Cli, UndeclaredFlagKeepsGreedyValueBinding) {
  // Valued flags (not in the boolean set) still bind the next token.
  auto cli = make_cli({"--json", "out.json", "--r", "4096"});
  EXPECT_EQ(cli.get("json", ""), "out.json");
  EXPECT_EQ(cli.get_int("r", 0), 4096);
  EXPECT_TRUE(cli.positional().empty());
}

TEST(Cli, BooleanAndValuedFlagsMix) {
  auto cli = make_cli(
      {"--racecheck", "--r", "1024", "--full", "table2.json", "--fig11"},
      {"racecheck", "full", "fig11"});
  EXPECT_TRUE(cli.get_bool("racecheck"));
  EXPECT_TRUE(cli.get_bool("full"));
  EXPECT_TRUE(cli.get_bool("fig11"));
  EXPECT_EQ(cli.get_int("r", 0), 1024);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "table2.json");
}

TEST(Cli, EqualsFormBindsForBooleanAndValuedFlags) {
  auto cli = make_cli({"--name=table2", "--profile=0", "--full=yes"},
                      {"profile", "full"});
  EXPECT_EQ(cli.get("name", ""), "table2");
  EXPECT_FALSE(cli.get_bool("profile", true));
  EXPECT_TRUE(cli.get_bool("full"));
}

TEST(Cli, GetBoolForms) {
  auto cli = make_cli({"--a=1", "--b=true", "--c=on", "--d=0", "--e=false",
                       "--f=off", "--g=no", "--h"},
                      {"h"});
  EXPECT_TRUE(cli.get_bool("a"));
  EXPECT_TRUE(cli.get_bool("b"));
  EXPECT_TRUE(cli.get_bool("c"));
  EXPECT_FALSE(cli.get_bool("d", true));
  EXPECT_FALSE(cli.get_bool("e", true));
  EXPECT_FALSE(cli.get_bool("f", true));
  EXPECT_FALSE(cli.get_bool("g", true));
  EXPECT_TRUE(cli.get_bool("h"));
  EXPECT_FALSE(cli.get_bool("missing", false));
  EXPECT_TRUE(cli.get_bool("missing", true));
}

TEST(Cli, GetBoolRejectsGarbageWithFlagName) {
  auto cli = make_cli({"--flag=maybe"});
  try {
    (void)cli.get_bool("flag");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--flag"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("maybe"), std::string::npos);
  }
}

TEST(Cli, NegativeNumericValuesBind) {
  // "-5" does not start with "--", so it binds as the flag's value.
  auto cli = make_cli({"--delta", "-5", "--tol", "-0.25"});
  EXPECT_EQ(cli.get_int("delta", 0), -5);
  EXPECT_DOUBLE_EQ(cli.get_double("tol", 0), -0.25);
}

TEST(Cli, GetIntRejectsTrailingGarbage) {
  auto cli = make_cli({"--gangs", "12x"});
  try {
    (void)cli.get_int("gangs", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--gangs"), std::string::npos) << msg;
    EXPECT_NE(msg.find("12x"), std::string::npos) << msg;
  }
}

TEST(Cli, GetIntRejectsNonNumbersWithFlagName) {
  auto cli = make_cli({"--r", "lots"});
  try {
    (void)cli.get_int("r", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--r"), std::string::npos) << msg;
    EXPECT_NE(msg.find("lots"), std::string::npos) << msg;
  }
}

TEST(Cli, GetDoubleRejectsTrailingGarbageAndNonNumbers) {
  auto bad_tail = make_cli({"--tol=0.5abc"});
  EXPECT_THROW((void)bad_tail.get_double("tol", 0), std::invalid_argument);
  auto bad = make_cli({"--tol=big"});
  try {
    (void)bad.get_double("tol", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--tol"), std::string::npos) << msg;
    EXPECT_NE(msg.find("big"), std::string::npos) << msg;
  }
}

TEST(Cli, GetUint32RejectsValuesThatWouldWrap) {
  // A cast of get_int() turned --sim-threads -1 into 256 shards and
  // --sim-threads=-4294967295 into 1.
  auto cli = make_cli({"--sim-threads", "-1", "--b=-4294967295",
                       "--c=4294967296", "--d=4294967295", "--e", "4"});
  for (const char* name : {"sim-threads", "b", "c"}) {
    try {
      (void)cli.get_uint32(name, 0);
      FAIL() << "expected std::invalid_argument for --" << name;
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_EQ(msg.rfind("--" + std::string(name) + ": ", 0), 0U) << msg;
    }
  }
  EXPECT_EQ(cli.get_uint32("d", 0), 4294967295U);
  EXPECT_EQ(cli.get_uint32("e", 0), 4U);
  EXPECT_EQ(cli.get_uint32("missing", 7), 7U);
}

TEST(Cli, NumericsStillParseGoodValues) {
  auto cli = make_cli({"--r", "1048576", "--tol", "1e-6", "--scale=2.5"});
  EXPECT_EQ(cli.get_int("r", 0), 1048576);
  EXPECT_DOUBLE_EQ(cli.get_double("tol", 0), 1e-6);
  EXPECT_DOUBLE_EQ(cli.get_double("scale", 0), 2.5);
}

TEST(Cli, PositionalsPreservedAroundFlags) {
  auto cli = make_cli({"first", "--racecheck", "second", "--r", "8", "third"},
                      {"racecheck"});
  ASSERT_EQ(cli.positional().size(), 3u);
  EXPECT_EQ(cli.positional()[0], "first");
  EXPECT_EQ(cli.positional()[1], "second");
  EXPECT_EQ(cli.positional()[2], "third");
  EXPECT_TRUE(cli.get_bool("racecheck"));
  EXPECT_EQ(cli.get_int("r", 0), 8);
}

TEST(Cli, TrailingDeclaredAndUndeclaredBooleans) {
  // A flag in last position has no next token either way.
  auto cli = make_cli({"--verbose", "--racecheck"}, {"racecheck"});
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_TRUE(cli.get_bool("racecheck"));
}

}  // namespace
}  // namespace accred
