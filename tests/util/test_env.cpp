// Every simulation knob has one source, its flag or its option field: the
// environment sets no default. The test sets each variable an earlier
// version read, before anything in this binary uses the library, and
// checks that every default is still the built-in constant.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>

#include "gpusim/launch.hpp"
#include "gpusim/pool.hpp"
#include "obs/record.hpp"
#include "obs/trace.hpp"
#include "testsuite/runner.hpp"
#include "util/cli.hpp"

namespace accred {
namespace {

TEST(EnvDefaults, EnvironmentSetsNoDefault) {
  const std::string trace = testing::TempDir() + "env_defaults.trace.json";
  const std::pair<const char*, std::string> settings[] = {
      {"ACCRED_SIM_THREADS", "3"}, {"ACCRED_MAX_STEPS", "5"},
      {"ACCRED_FAULTS", "bitflip"}, {"ACCRED_RACECHECK", "1"},
      {"ACCRED_PROFILE", "1"},      {"ACCRED_TRACE", trace}};
  for (const auto& [name, value] : settings) {
    ASSERT_EQ(::setenv(name, value.c_str(), 1), 0) << name;
  }

  const std::uint32_t hw = std::thread::hardware_concurrency();
  EXPECT_EQ(gpusim::default_sim_threads(), hw == 0 ? 1U : hw);

  const gpusim::SimOptions sim;
  EXPECT_EQ(sim.faults, "");
  EXPECT_FALSE(sim.racecheck);
  EXPECT_FALSE(sim.profile);
  EXPECT_EQ(testsuite::RunnerOptions{}.faults, "");

  // max_steps = 0 is the built-in budget, far above six barrier waves.
  gpusim::Device dev;
  gpusim::SimOptions opts;
  opts.sim_threads = 1;
  gpusim::LaunchStats stats;
  EXPECT_NO_THROW(stats = gpusim::launch(
                      dev, {1}, {32}, 0,
                      [](gpusim::ThreadCtx& ctx) {
                        for (int i = 0; i < 6; ++i) ctx.syncthreads();
                      },
                      opts));
  EXPECT_EQ(stats.barriers, 6U);

  char prog[] = "prog";
  char* argv[] = {prog};
  const util::Cli cli(1, argv, {}, {"json", "trace"});
  const obs::Session session(cli, "env_defaults");
  EXPECT_FALSE(obs::trace_enabled());
}

}  // namespace
}  // namespace accred
