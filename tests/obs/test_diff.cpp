// obs/diff.hpp: the CI regression gate. Exit codes are contract — 0 pass,
// 1 regression past tolerance, 2 not-comparable — and the metric naming
// conventions decide
// which direction counts as worse (wall_* skipped; eff / occupancy /
// jobs_per_sec higher-is-better).
#include "obs/diff.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "obs/record.hpp"

namespace accred::obs {
namespace {

Json make_record(double device_ms, double eff = 0.9,
                 double wall_ms = 100.0) {
  RunRecord rec("gate_bench");
  rec.entry("row")
      .metric("device_ms", device_ms)
      .metric("coalescing_efficiency", eff)
      .metric("wall_ms", wall_ms);
  return rec.to_json();
}

TEST(Diff, IdenticalRecordsPass) {
  const Json base = make_record(2.0);
  const DiffReport r = diff_records(base, base);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.regressions(), 0u);
  // wall_ms is informational: only the two gated metrics are compared.
  EXPECT_EQ(r.lines.size(), 2u);
}

TEST(Diff, DoubledModeledTimeFailsAtDefaultTolerance) {
  const DiffReport r = diff_records(make_record(2.0), make_record(4.0));
  EXPECT_EQ(r.exit_code, 1);
  ASSERT_EQ(r.regressions(), 1u);
  const DiffLine* reg = nullptr;
  for (const DiffLine& line : r.lines) {
    if (line.status == DiffLine::Status::kRegression) reg = &line;
  }
  ASSERT_NE(reg, nullptr);
  EXPECT_EQ(reg->metric, "device_ms");
  EXPECT_DOUBLE_EQ(reg->rel_change, 1.0);  // +100% in the worse direction
}

TEST(Diff, RegressionWithinTolerancePasses) {
  DiffOptions opts;
  opts.tolerance = 0.25;
  const DiffReport r =
      diff_records(make_record(2.0), make_record(2.4), opts);
  EXPECT_EQ(r.exit_code, 0);
}

TEST(Diff, ImprovementPasses) {
  const DiffReport r = diff_records(make_record(4.0), make_record(2.0));
  EXPECT_EQ(r.exit_code, 0);
  bool improved = false;
  for (const DiffLine& line : r.lines) {
    if (line.status == DiffLine::Status::kImproved) improved = true;
  }
  EXPECT_TRUE(improved);
}

TEST(Diff, EfficiencyDropIsARegression) {
  // Lower efficiency is worse even though the number went down.
  const DiffReport r =
      diff_records(make_record(2.0, 0.9), make_record(2.0, 0.4));
  EXPECT_EQ(r.exit_code, 1);
  ASSERT_EQ(r.regressions(), 1u);
}

TEST(Diff, WallTimeIsNeverGated) {
  const DiffReport r =
      diff_records(make_record(2.0, 0.9, 100.0), make_record(2.0, 0.9, 9000.0));
  EXPECT_EQ(r.exit_code, 0);
}

TEST(Diff, MetricNameConventions) {
  EXPECT_FALSE(metric_is_gated("wall_ms"));
  EXPECT_FALSE(metric_is_gated("wall_time_ms"));
  EXPECT_TRUE(metric_is_gated("device_ms"));
  EXPECT_TRUE(metric_higher_is_better("coalescing_efficiency"));
  EXPECT_TRUE(metric_higher_is_better("sm_occupancy"));
  EXPECT_TRUE(metric_higher_is_better("wall_jobs_per_sec"));
  EXPECT_FALSE(metric_is_gated("wall_jobs_per_sec"));
  EXPECT_FALSE(metric_higher_is_better("device_ms"));
  EXPECT_FALSE(metric_higher_is_better("barriers"));
  EXPECT_FALSE(metric_higher_is_better("rejected_queue"));
  // Latency names are lower-is-better even when another pattern matches:
  // the "_ms" / percentile guard wins first.
  EXPECT_FALSE(metric_higher_is_better("queue_wait_p99_ms"));
  EXPECT_FALSE(metric_higher_is_better("e2e_p50_ms"));
  EXPECT_FALSE(metric_higher_is_better("effective_latency_ms"));
  EXPECT_TRUE(metric_is_gated("queue_wait_p99_ms"));
}

TEST(Diff, FutureSchemaVersionIsNotComparable) {
  Json base = make_record(2.0);
  Json cur = make_record(2.0);
  cur.set("schema_version", kBenchSchemaVersion + 1);
  const DiffReport r = diff_records(base, cur);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_FALSE(r.schema_error.empty());
}

TEST(Diff, V1BaselineAgainstCurrentExitsTwo) {
  // The concrete migration case: a committed pre-profiler baseline
  // (schema_version 1) predates the compat floor and must refuse to
  // compare, not silently pass — baselines have to be regenerated.
  Json base = make_record(2.0);
  base.set("schema_version", std::int64_t{1});
  static_assert(kBenchSchemaCompatVersion == 2);
  const DiffReport r = diff_records(base, make_record(2.0));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_FALSE(r.schema_error.empty());
}

TEST(Diff, V2BaselineAgainstV3CurrentStaysComparable) {
  // v3 only adds the optional "telemetry" section, so a committed v2
  // baseline still gates a v3 record — with a cross-version note, and
  // regressions still detected.
  static_assert(kBenchSchemaVersion == 3);
  Json base = make_record(2.0);
  base.set("schema_version", std::int64_t{2});
  const DiffReport same = diff_records(base, make_record(2.0));
  EXPECT_EQ(same.exit_code, 0);
  ASSERT_FALSE(same.notes.empty());
  EXPECT_NE(same.notes[0].find("cross-version"), std::string::npos);
  EXPECT_EQ(diff_records(base, make_record(4.0)).exit_code, 1);
  // And symmetrically: a v3 baseline against a v2 current.
  Json old_cur = make_record(2.0);
  old_cur.set("schema_version", std::int64_t{2});
  EXPECT_EQ(diff_records(make_record(2.0), old_cur).exit_code, 0);
}

TEST(Diff, BenchNameMismatchIsNotComparable) {
  Json cur = make_record(2.0);
  cur.set("bench", "some_other_bench");
  EXPECT_EQ(diff_records(make_record(2.0), cur).exit_code, 2);
}

TEST(Diff, MissingBaselineEntryIsNotComparable) {
  RunRecord cur("gate_bench");
  cur.entry("different_row").metric("device_ms", 2.0);
  const DiffReport r = diff_records(make_record(2.0), cur.to_json());
  EXPECT_EQ(r.exit_code, 2);
}

TEST(Diff, NewCurrentEntryIsANoteNotAnError) {
  RunRecord cur("gate_bench");
  cur.entry("row")
      .metric("device_ms", 2.0)
      .metric("coalescing_efficiency", 0.9)
      .metric("wall_ms", 100.0);
  cur.entry("brand_new_row").metric("device_ms", 1.0);
  const DiffReport r = diff_records(make_record(2.0), cur.to_json());
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_FALSE(r.notes.empty());
}

TEST(Diff, FilesRoundTrip) {
  const std::string base_path = ::testing::TempDir() + "accred_diff_base.json";
  const std::string cur_path = ::testing::TempDir() + "accred_diff_cur.json";
  {
    std::ofstream(base_path) << make_record(2.0).dump(2);
    std::ofstream(cur_path) << make_record(4.0).dump(2);
  }
  EXPECT_EQ(diff_files(base_path, cur_path).exit_code, 1);
  EXPECT_EQ(diff_files(base_path, base_path).exit_code, 0);
  EXPECT_EQ(diff_files("/nonexistent/x.json", cur_path).exit_code, 2);
  std::remove(base_path.c_str());
  std::remove(cur_path.c_str());
}

TEST(Diff, ToleranceParsing) {
  EXPECT_DOUBLE_EQ(parse_tolerance("25%"), 0.25);
  EXPECT_DOUBLE_EQ(parse_tolerance("0.25"), 0.25);
  EXPECT_DOUBLE_EQ(parse_tolerance("0"), 0.0);
  EXPECT_THROW((void)parse_tolerance("abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_tolerance("-5%"), std::invalid_argument);
  EXPECT_THROW((void)parse_tolerance(""), std::invalid_argument);
}

TEST(Diff, ZeroBaselineToNonzeroIsRegression) {
  RunRecord base("gate_bench");
  base.entry("row").metric("barriers", 0.0);
  RunRecord cur("gate_bench");
  cur.entry("row").metric("barriers", 5.0);
  EXPECT_EQ(diff_records(base.to_json(), cur.to_json()).exit_code, 1);
  EXPECT_EQ(diff_records(base.to_json(), base.to_json()).exit_code, 0);
}

}  // namespace
}  // namespace accred::obs
