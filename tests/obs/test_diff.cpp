// obs/diff.hpp: the CI regression gate. Exit codes are contract — 0 pass,
// 1 regression past tolerance (or a gated number gone missing as null),
// 2 not-comparable — and the metric naming conventions decide which
// direction counts as worse (wall_* skipped; eff / occupancy /
// jobs_per_sec higher-is-better).
#include "obs/diff.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

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
  // (schema_version 1) must refuse to compare, not silently pass —
  // baselines have to be regenerated.
  Json base = make_record(2.0);
  base.set("schema_version", std::int64_t{1});
  const DiffReport r = diff_records(base, make_record(2.0));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_FALSE(r.schema_error.empty());
}

TEST(Diff, V2RecordOnEitherSideExitsTwo) {
  // Only the current version is read: a v2 record is refused as a
  // baseline and as a current record alike.
  static_assert(kBenchSchemaVersion == 3);
  Json old = make_record(2.0);
  old.set("schema_version", std::int64_t{2});
  const DiffReport as_base = diff_records(old, make_record(2.0));
  EXPECT_EQ(as_base.exit_code, 2);
  EXPECT_NE(as_base.schema_error.find("baseline: schema_version v2"),
            std::string::npos)
      << as_base.schema_error;
  const DiffReport as_cur = diff_records(make_record(2.0), old);
  EXPECT_EQ(as_cur.exit_code, 2);
  EXPECT_NE(as_cur.schema_error.find("current: schema_version v2"),
            std::string::npos)
      << as_cur.schema_error;
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
  const Json base = load_record(base_path);
  EXPECT_EQ(diff_records(base, load_record(cur_path)).exit_code, 1);
  EXPECT_EQ(diff_records(base, load_record(base_path)).exit_code, 0);
  try {
    (void)load_record("/nonexistent/x.json");
    ADD_FAILURE() << "a missing file must not load";
  } catch (const RecordError& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/x.json"),
              std::string::npos);
  }
  std::remove(base_path.c_str());
  std::remove(cur_path.c_str());
}

TEST(Diff, MetricThatStopsBeingANumberFailsTheGate) {
  // The writer emits a non-finite double as null: a gated metric that
  // turns NaN must fail the gate, not drop out of the comparison.
  const Json cur = Json::parse(make_record(std::nan("")).dump());
  ASSERT_TRUE(cur.at("entries").elements()[0].at("metrics").at("device_ms")
                  .is_null());
  const DiffReport r = diff_records(make_record(2.0), cur, {.tolerance = 0});
  EXPECT_EQ(r.exit_code, 1);
  ASSERT_EQ(r.regressions(), 1u);
  EXPECT_EQ(r.lines.size(), 2u);
  std::ostringstream out;
  print_diff(out, r);
  EXPECT_NE(out.str().find("REGRESSION  row :: device_ms  2.000000 -> not a "
                           "number"),
            std::string::npos)
      << out.str();
}

TEST(Diff, ToleranceParsing) {
  EXPECT_DOUBLE_EQ(parse_tolerance("25%"), 0.25);
  EXPECT_DOUBLE_EQ(parse_tolerance("0.25"), 0.25);
  EXPECT_DOUBLE_EQ(parse_tolerance("0"), 0.0);
  EXPECT_THROW((void)parse_tolerance("abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_tolerance("-5%"), std::invalid_argument);
  EXPECT_THROW((void)parse_tolerance(""), std::invalid_argument);
}

/// One gated row whose entry carries a telemetry section with the given
/// counter names (each at `value`) and one histogram.
Json telemetry_record(const std::vector<std::string>& counters,
                      std::int64_t value = 1) {
  Json dump = Json::parse(R"({"histograms": {"service/e2e_ms": {}}})");
  Json names = Json::object();
  for (const std::string& c : counters) names.set(c, value);
  dump.set("counters", std::move(names));
  RunRecord rec("gate_bench");
  rec.entry("row").metric("device_ms", 2.0).telemetry(std::move(dump));
  return rec.to_json();
}

TEST(Diff, TelemetryNameSetsMustMatch) {
  const Json base = telemetry_record({"service/completed", "service/failed"});
  // Names are gated here, values are not: a changed count still passes.
  EXPECT_EQ(
      diff_records(base,
                   telemetry_record({"service/completed", "service/failed"}, 7))
          .exit_code,
      0);

  const DiffReport renamed = diff_records(
      base, telemetry_record({"service/done", "service/failed"}));
  EXPECT_EQ(renamed.exit_code, 2);
  EXPECT_EQ(renamed.schema_error,
            "entry 'row' telemetry counters: 'service/completed' is missing "
            "from the current record");

  const DiffReport added = diff_records(
      base,
      telemetry_record({"service/completed", "service/failed", "service/new"}));
  EXPECT_EQ(added.exit_code, 2);
  EXPECT_EQ(added.schema_error,
            "entry 'row' telemetry counters: unexpected 'service/new' (not in "
            "the baseline)");
}

TEST(Diff, TelemetryOnOneSideOnlyIsNotCompared) {
  // An entry without telemetry still gates against a telemetry-carrying
  // baseline, and the other way round.
  const Json with = telemetry_record({"service/completed"});
  RunRecord off("gate_bench");
  off.entry("row").metric("device_ms", 2.0);
  EXPECT_EQ(diff_records(with, off.to_json()).exit_code, 0);
  EXPECT_EQ(diff_records(off.to_json(), with).exit_code, 0);
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
