// Shared helpers for the reduction-service tests: small, fast job specs
// (tiny extents and launch geometry so the suite also runs quickly under
// the ThreadSanitizer preset) and a field-by-field plan comparison.
#pragma once

#include <gtest/gtest.h>

#include <chrono>

#include "service/job.hpp"
#include "service/service.hpp"

namespace accred::service::test {

/// Bounded drain for test teardown: a liveness regression (a job the
/// dispatcher never resolves) fails the test in seconds instead of hanging
/// the whole suite on an unbounded drain().
inline void drain_or_fail(ReductionService& svc,
                          std::chrono::seconds timeout = std::chrono::seconds(120)) {
  const std::uint64_t left = svc.drain(timeout);
  ASSERT_EQ(left, 0u) << left << " job(s) still open after " << timeout.count()
                      << "s — service liveness regression";
}

/// A cheap job: tiny extent and launch geometry, OpenUH, int sum on the
/// gang position unless overridden.
inline JobSpec make_job(std::string tenant = "t",
                        acc::Position pos = acc::Position::kGang,
                        std::int64_t extent = 128) {
  JobSpec job;
  job.tenant = std::move(tenant);
  job.kase = {pos, acc::ReductionOp::kSum, acc::DataType::kInt32};
  job.reduction_extent = extent;
  job.config = acc::LaunchConfig{8, 2, 32};
  return job;
}

/// Every planner decision and derived fact, compared field by field: a
/// service-planned job must be indistinguishable from the testsuite's own
/// plan for the same cell.
inline void expect_plans_equal(const acc::ExecutionPlan& a,
                               const acc::ExecutionPlan& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.var, b.var);
  EXPECT_EQ(a.dims.nk, b.dims.nk);
  EXPECT_EQ(a.dims.nj, b.dims.nj);
  EXPECT_EQ(a.dims.ni, b.dims.ni);
  EXPECT_EQ(a.same_loop_extent, b.same_loop_extent);
  EXPECT_EQ(a.launch.num_gangs, b.launch.num_gangs);
  EXPECT_EQ(a.launch.num_workers, b.launch.num_workers);
  EXPECT_EQ(a.launch.vector_length, b.launch.vector_length);
  EXPECT_EQ(a.strategy.staging, b.strategy.staging);
  EXPECT_EQ(a.strategy.vector_layout, b.strategy.vector_layout);
  EXPECT_EQ(a.strategy.worker_layout, b.strategy.worker_layout);
  EXPECT_EQ(a.strategy.assignment, b.strategy.assignment);
  EXPECT_EQ(a.strategy.tree.addr, b.strategy.tree.addr);
  EXPECT_EQ(a.strategy.tree.unroll_last_warp, b.strategy.tree.unroll_last_warp);
  EXPECT_EQ(a.strategy.tree.full_unroll, b.strategy.tree.full_unroll);
  EXPECT_EQ(a.strategy.finalize_threads, b.strategy.finalize_threads);
  EXPECT_EQ(a.strategy.spill_private, b.strategy.spill_private);
  EXPECT_EQ(a.shared_bytes, b.shared_bytes);
  EXPECT_EQ(a.global_buffer_elems, b.global_buffer_elems);
  EXPECT_EQ(a.kernel_count, b.kernel_count);
  ASSERT_EQ(a.chain.size(), b.chain.size());
  for (std::size_t s = 0; s < a.chain.size(); ++s) {
    EXPECT_EQ(a.chain[s], b.chain[s]) << "fused chain stage " << s;
  }
}

}  // namespace accred::service::test
