// Numeric environment settings: the strict parse helper (util/env.hpp)
// and the two process defaults that read through it. strtoul/strtoull
// wrapped a leading '-', so ACCRED_SIM_THREADS=-1 meant 256 shards and
// ACCRED_MAX_STEPS=-1 switched the watchdog off.
#include "util/env.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <thread>

#include "gpusim/pool.hpp"
#include "gpusim/scheduler.hpp"

namespace accred {
namespace {

TEST(ParseEnvUnsigned, AcceptsPlainDecimalDigits) {
  EXPECT_EQ(util::parse_env_unsigned("0"), 0U);
  EXPECT_EQ(util::parse_env_unsigned("4"), 4U);
  EXPECT_EQ(util::parse_env_unsigned("0007"), 7U);
  EXPECT_EQ(util::parse_env_unsigned("18446744073709551615"),
            UINT64_C(18446744073709551615));
}

TEST(ParseEnvUnsigned, MalformedValuesAreRejected) {
  for (const char* bad : {"", "-1", "-0", "+4", " 4", "4 ", "4x", "0x10",
                          "1e3", "18446744073709551616"}) {
    EXPECT_EQ(util::parse_env_unsigned(bad), std::nullopt) << '"' << bad
                                                           << '"';
  }
  EXPECT_EQ(util::parse_env_unsigned(nullptr), std::nullopt);
}

TEST(EnvDefaults, NegativeValuesFallBackToDefaults) {
  // Both defaults parse their variable once, on first use, and nothing
  // else in this binary reads them, so setting them here is in time.
  ASSERT_EQ(::setenv("ACCRED_SIM_THREADS", "-1", 1), 0);
  ASSERT_EQ(::setenv("ACCRED_MAX_STEPS", "-1", 1), 0);
  const std::uint32_t hw = std::thread::hardware_concurrency();
  EXPECT_EQ(gpusim::default_sim_threads(), hw == 0 ? 1U : hw);
  EXPECT_EQ(gpusim::default_max_steps(), gpusim::kDefaultMaxSteps);
}

}  // namespace
}  // namespace accred
