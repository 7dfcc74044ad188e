// Tests for the small utility layer: table rendering, the deterministic
// RNG, and the compile-time operator functors (the flag parser has its
// own file, test_cli.cpp).
#include <gtest/gtest.h>

#include <sstream>

#include "acc/ops.hpp"
#include "util/rng.hpp"
#include "gpusim/stats_io.hpp"
#include "util/table.hpp"

namespace accred {
namespace {

TEST(TextTable, AlignsColumnsAndRulesHeader) {
  util::TextTable t;
  t.header({"name", "value"});
  t.row({"a", "1"});
  t.row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  // Columns align: both value cells start at the same offset.
  const auto l1 = out.find("a     ");
  EXPECT_NE(l1, std::string::npos);
}

TEST(TextTable, NumFormatsPrecision) {
  EXPECT_EQ(util::TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(util::TextTable::num(2.0, 0), "2");
}

TEST(Rng, DeterministicAndUniform) {
  util::SplitMix64 a(42);
  util::SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());

  util::SplitMix64 c(7);
  double sum = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    const double v = c.next_unit();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, RangeFill) {
  std::vector<double> v(1000);
  util::fill_uniform(std::span<double>(v), 3, -2.0, 2.0);
  for (double x : v) {
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 2.0);
  }
  std::vector<float> f(1000);
  util::fill_uniform(std::span<float>(f), 3, 0.0F, 1.0F);
  EXPECT_NE(f[0], f[1]);
}

TEST(StatsIo, RendersAllSections) {
  gpusim::LaunchStats s;
  s.blocks = 4;
  s.threads = 512;
  s.gmem_requests = 100;
  s.gmem_segments = 150;
  s.gmem_bytes = 12800;
  s.smem_requests = 10;
  s.smem_cycles = 20;
  s.barriers = 7;
  s.syncwarps = 3;
  s.device_time_ns = 2.5e6;
  std::ostringstream os;
  gpusim::print_launch_stats(os, s, "demo");
  const std::string out = os.str();
  EXPECT_NE(out.find("demo: 2.500 ms"), std::string::npos);
  EXPECT_NE(out.find("150 segments"), std::string::npos);
  EXPECT_NE(out.find("bank factor 2.00"), std::string::npos);
  EXPECT_NE(out.find("7 syncthreads"), std::string::npos);
}

TEST(StatsIo, RendersRacecheckSectionOnlyWhenChecked) {
  gpusim::LaunchStats s;
  std::ostringstream off;
  gpusim::print_launch_stats(off, s, "demo");
  EXPECT_EQ(off.str().find("races"), std::string::npos);

  s.racecheck = true;
  s.races = 3;
  gpusim::RaceReport r;
  r.addr = 0x40;
  r.first.write = true;
  r.first.stage = "staging";
  r.second.write = true;
  r.second.stage = "tree";
  s.race_reports.push_back(r);
  std::ostringstream on;
  gpusim::print_launch_stats(on, s, "demo");
  EXPECT_NE(on.str().find("races:  3 conflicting"), std::string::npos)
      << on.str();
  EXPECT_NE(on.str().find("WAW"), std::string::npos) << on.str();
}

TEST(StatsIo, RestoresStreamFlagsAndPrecision) {
  gpusim::LaunchStats s;
  s.blocks = 1;
  s.threads = 32;
  s.device_time_ns = 1.25e6;
  std::ostringstream os;
  os.precision(9);
  os << std::scientific;
  const auto flags_before = os.flags();
  gpusim::print_launch_stats(os, s, "demo");
  EXPECT_EQ(os.precision(), 9);
  EXPECT_EQ(os.flags(), flags_before);
  // The stream still formats the caller's way afterwards.
  os.str("");
  os << 1.5;
  EXPECT_NE(os.str().find("1.500000000e+00"), std::string::npos) << os.str();
}

TEST(CompileTimeOps, FunctorsMatchRuntimeOps) {
  EXPECT_EQ(acc::SumOp{}(3, 4), 7);
  EXPECT_EQ(acc::ProdOp{}(3.0, 4.0), 12.0);
  EXPECT_EQ(acc::MaxOp{}(-1, 5), 5);
  EXPECT_EQ(acc::MinOp{}(-1, 5), -1);
  EXPECT_EQ(acc::SumOp::identity<int>(), 0);
  EXPECT_EQ(acc::ProdOp::identity<double>(), 1.0);
  EXPECT_EQ(acc::MaxOp::identity<int>(), std::numeric_limits<int>::lowest());
  EXPECT_EQ(acc::MinOp::identity<float>(), std::numeric_limits<float>::max());
}

}  // namespace
}  // namespace accred
