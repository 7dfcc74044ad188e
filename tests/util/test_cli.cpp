// Tests for the CLI flag parser, focused on the historical footguns:
// boolean flags silently swallowing the next positional, raw stoll/stod
// exceptions surfacing without the flag name, and a misspelt flag running
// silently at its default.
#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace accred {
namespace {

util::Cli make_cli(std::vector<std::string> args,
                   const std::vector<std::string_view>& bool_flags,
                   const std::vector<std::string_view>& value_flags) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  static std::vector<char*> argv;
  argv.clear();
  argv.push_back(const_cast<char*>("prog"));
  for (auto& a : storage) argv.push_back(a.data());
  return util::Cli(static_cast<int>(argv.size()), argv.data(), bool_flags,
                   value_flags);
}

TEST(Cli, DeclaredBooleanDoesNotSwallowPositional) {
  // The original bug: `bench --profile out.json` bound "out.json" as the
  // value of --profile and lost the positional.
  auto cli = make_cli({"--profile", "out.json"}, {"profile"}, {});
  EXPECT_TRUE(cli.get_bool("profile"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "out.json");
}

TEST(Cli, ValueFlagBindsTheNextToken) {
  auto cli = make_cli({"--json", "out.json", "--r", "4096"}, {},
                      {"json", "r"});
  EXPECT_EQ(cli.get("json", ""), "out.json");
  EXPECT_EQ(cli.get_int("r", 0), 4096);
  EXPECT_TRUE(cli.positional().empty());
}

TEST(Cli, UnknownFlagIsAUsageErrorNamingIt) {
  // A misspelt flag must not run silently at its default.
  for (const char* typo : {"--fualts", "--fualts=bitflip"}) {
    try {
      (void)make_cli({"--faults", "x", typo}, {}, {"faults"});
      FAIL() << "expected std::invalid_argument for " << typo;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), "unknown flag --fualts");
    }
  }
}

TEST(Cli, ReadingAnUndeclaredFlagIsALogicError) {
  auto cli = make_cli({}, {"full"}, {"r"});
  EXPECT_FALSE(cli.has("full"));
  EXPECT_THROW((void)cli.has("racecheck"), std::logic_error);
  EXPECT_THROW((void)cli.get_int("n", 0), std::logic_error);
}

TEST(Cli, BooleanAndValuedFlagsMix) {
  auto cli = make_cli(
      {"--racecheck", "--r", "1024", "--full", "table2.json", "--fig11"},
      {"racecheck", "full", "fig11"}, {"r"});
  EXPECT_TRUE(cli.get_bool("racecheck"));
  EXPECT_TRUE(cli.get_bool("full"));
  EXPECT_TRUE(cli.get_bool("fig11"));
  EXPECT_EQ(cli.get_int("r", 0), 1024);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "table2.json");
}

TEST(Cli, EqualsFormBindsForBooleanAndValuedFlags) {
  auto cli = make_cli({"--name=table2", "--profile=0", "--full=yes"},
                      {"profile", "full"}, {"name"});
  EXPECT_EQ(cli.get("name", ""), "table2");
  EXPECT_FALSE(cli.get_bool("profile", true));
  EXPECT_TRUE(cli.get_bool("full"));
}

TEST(Cli, GetBoolForms) {
  auto cli = make_cli({"--a=1", "--b=true", "--c=on", "--d=0", "--e=false",
                       "--f=off", "--g=no", "--h"},
                      {"a", "b", "c", "d", "e", "f", "g", "h", "missing"}, {});
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
  auto cli = make_cli({"--flag=maybe"}, {"flag"}, {});
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
  auto cli = make_cli({"--delta", "-5", "--tol", "-0.25"}, {},
                      {"delta", "tol"});
  EXPECT_EQ(cli.get_int("delta", 0), -5);
  EXPECT_DOUBLE_EQ(cli.get_double("tol", 0), -0.25);
}

TEST(Cli, GetIntRejectsTrailingGarbage) {
  auto cli = make_cli({"--gangs", "12x"}, {}, {"gangs"});
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
  auto cli = make_cli({"--r", "lots"}, {}, {"r"});
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
  auto bad_tail = make_cli({"--tol=0.5abc"}, {}, {"tol"});
  EXPECT_THROW((void)bad_tail.get_double("tol", 0), std::invalid_argument);
  auto bad = make_cli({"--tol=big"}, {}, {"tol"});
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
                       "--c=4294967296", "--d=4294967295", "--e", "4"},
                      {}, {"sim-threads", "b", "c", "d", "e", "missing"});
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

TEST(Cli, GetCountsChecksEveryElement) {
  // --sizes 20x ran as 20, --sizes abc died in a bare stoll, and
  // --samples -4 wrapped to a huge count before the list went through
  // get_int's checks.
  auto cli = make_cli({"--a", "20x", "--b", "abc", "--c=-4", "--d", "8,0",
                       "--e", "4,,8", "--f", "64,128"},
                      {}, {"a", "b", "c", "d", "e", "f", "missing"});
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"a", "20x"}, {"b", "abc"}, {"c", "-4"}, {"d", "\"0\""},
      {"e", "\"\""}};
  for (const auto& [name, shown] : bad) {
    try {
      (void)cli.get_counts(name, "1");
      FAIL() << "expected std::invalid_argument for --" << name;
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_EQ(msg.rfind("--" + name + ": ", 0), 0U) << msg;
      EXPECT_NE(msg.find(shown), std::string::npos) << msg;
    }
  }
  EXPECT_EQ(cli.get_counts("f", "1"), (std::vector<std::int64_t>{64, 128}));
  EXPECT_EQ(cli.get_counts("missing", "192,2048"),
            (std::vector<std::int64_t>{192, 2048}));
}

TEST(Cli, NumericsStillParseGoodValues) {
  auto cli = make_cli({"--r", "1048576", "--tol", "1e-6", "--scale=2.5"}, {},
                      {"r", "tol", "scale"});
  EXPECT_EQ(cli.get_int("r", 0), 1048576);
  EXPECT_DOUBLE_EQ(cli.get_double("tol", 0), 1e-6);
  EXPECT_DOUBLE_EQ(cli.get_double("scale", 0), 2.5);
}

TEST(Cli, PositionalsPreservedAroundFlags) {
  auto cli = make_cli({"first", "--racecheck", "second", "--r", "8", "third"},
                      {"racecheck"}, {"r"});
  ASSERT_EQ(cli.positional().size(), 3u);
  EXPECT_EQ(cli.positional()[0], "first");
  EXPECT_EQ(cli.positional()[1], "second");
  EXPECT_EQ(cli.positional()[2], "third");
  EXPECT_TRUE(cli.get_bool("racecheck"));
  EXPECT_EQ(cli.get_int("r", 0), 8);
}

TEST(Cli, TrailingBooleanAndValueFlags) {
  // A flag in last position has no next token either way.
  auto cli = make_cli({"--json", "--racecheck"}, {"racecheck"}, {"json"});
  EXPECT_TRUE(cli.has("json"));
  EXPECT_EQ(cli.get("json", "x"), "");
  EXPECT_TRUE(cli.get_bool("racecheck"));
}

}  // namespace
}  // namespace accred
