// The warp-width contract's shared checks (test_warp_widths*.cpp): a
// cell's clean run executes its warp kernels at width 32, and the same cell
// under racecheck runs them one lane per context (width 1, lane order).
#pragma once

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "acc/profiles.hpp"
#include "gpusim/cost_model.hpp"
#include "testsuite/runner.hpp"

namespace accred::testsuite {

/// Every modeled counter of a launch, doubles as hexfloat, so equal
/// strings mean bit-identical stats.
inline std::string counters(const gpusim::LaunchStats& s) {
  std::ostringstream os;
  os << std::hexfloat << s.blocks << '|' << s.threads << '|'
     << s.gmem_requests << '|' << s.gmem_segments << '|' << s.gmem_bytes
     << '|' << s.smem_requests << '|' << s.smem_cycles << '|' << s.barriers
     << '|' << s.syncwarps << '|' << s.alu_units << '|' << s.device_time_ns
     << '|' << s.barrier_exit_divergence << '|' << s.barrier_site_mismatch;
  return os.str();
}

inline constexpr acc::CompilerId kCompilers[] = {
    acc::CompilerId::kOpenUH, acc::CompilerId::kCapsLike,
    acc::CompilerId::kPgiLike};

/// A cell's clean run `a` (width 32) against its racecheck run `b`.
inline void expect_same_outcome(const CaseOutcome& a, const CaseOutcome& b) {
  ASSERT_EQ(a.status, b.status);
  if (a.status != acc::Robustness::kOk) return;
  EXPECT_TRUE(a.verified) << a.detail;
  EXPECT_TRUE(b.verified) << b.detail;
  EXPECT_EQ(b.stats.races, 0u);
  EXPECT_EQ(a.kernels, b.kernels);
  EXPECT_EQ(counters(a.stats), counters(b.stats));
  EXPECT_EQ(a.result_hash, b.result_hash);
}

}  // namespace accred::testsuite
