// obs/record.hpp: the schema-stability golden. Field names, their order,
// and the derived-metric values are contract — accred_report and the
// committed CI baselines parse them, so a mismatch here means either a
// schema_version bump was forgotten or a field changed meaning.
#include "obs/record.hpp"

#include <gtest/gtest.h>

#include "obs/profiler.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace accred::obs {
namespace {

gpusim::LaunchStats sample_stats() {
  gpusim::LaunchStats s;
  s.blocks = 26;
  s.threads = 26 * 256;
  s.gmem_requests = 1000;
  s.gmem_segments = 2000;
  s.gmem_bytes = 128000;
  s.smem_requests = 400;
  s.smem_cycles = 1200;
  s.barriers = 52;
  s.syncwarps = 208;
  s.alu_units = 5000;
  s.device_time_ns = 1.5e6;
  s.wall_time_ns = 3e6;
  return s;
}

TEST(Record, StatsGoldenFieldNamesAndDerivedValues) {
  const Json j = stats_to_json(sample_stats());
  const std::vector<std::string> want = {
      "blocks",        "threads",      "gmem_requests",
      "gmem_segments", "gmem_bytes",   "smem_requests",
      "smem_cycles",   "barriers",     "syncwarps",
      "alu_units",     "device_time_ms", "wall_time_ms",
      "coalescing_efficiency", "bank_conflict_factor", "sm_occupancy"};
  ASSERT_EQ(j.items().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(j.items()[i].first, want[i]) << "field order changed at " << i;
  }
  EXPECT_EQ(j.at("blocks").as_int(), 26);
  EXPECT_DOUBLE_EQ(j.at("device_time_ms").as_double(), 1.5);
  EXPECT_DOUBLE_EQ(j.at("wall_time_ms").as_double(), 3.0);
  // 128000 useful bytes / (2000 segments * 128 B) = 0.5.
  EXPECT_DOUBLE_EQ(j.at("coalescing_efficiency").as_double(), 0.5);
  // 1200 cycles / 400 requests = 3-way average conflict.
  EXPECT_DOUBLE_EQ(j.at("bank_conflict_factor").as_double(), 3.0);
  // 26 blocks on the default 13-SM device: all SMs populated.
  EXPECT_DOUBLE_EQ(j.at("sm_occupancy").as_double(), 1.0);
}

TEST(Record, OccupancyIsFractionalBelowSmCount) {
  gpusim::LaunchStats s = sample_stats();
  s.blocks = 4;
  EXPECT_DOUBLE_EQ(stats_to_json(s).at("sm_occupancy").as_double(), 4.0 / 13);
}

TEST(Record, RunRecordTopLevelSchema) {
  RunRecord rec("demo_bench");
  rec.meta("extent", std::int64_t{1024});
  rec.entry("a/b").metric("device_ms", 1.25).attr("verified", "yes");
  rec.entry("a/b").metric("kernels", 2.0);  // get-or-create merges
  rec.entry("c").stats(sample_stats());

  const Json j = rec.to_json();
  ASSERT_EQ(j.items().size(), 5u);
  EXPECT_EQ(j.items()[0].first, "schema");
  EXPECT_EQ(j.items()[1].first, "schema_version");
  EXPECT_EQ(j.items()[2].first, "bench");
  EXPECT_EQ(j.items()[3].first, "meta");
  EXPECT_EQ(j.items()[4].first, "entries");
  EXPECT_EQ(j.at("schema").as_string(), "accred.bench");
  // v3: entries may carry "profile" (v2) and "telemetry" (v3) sections.
  EXPECT_EQ(j.at("schema_version").as_int(), 3);
  EXPECT_EQ(j.at("bench").as_string(), "demo_bench");
  EXPECT_EQ(j.at("meta").at("extent").as_int(), 1024);

  const auto& entries = j.at("entries").elements();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].at("name").as_string(), "a/b");
  EXPECT_DOUBLE_EQ(entries[0].at("metrics").at("device_ms").as_double(), 1.25);
  EXPECT_DOUBLE_EQ(entries[0].at("metrics").at("kernels").as_double(), 2.0);
  EXPECT_EQ(entries[0].at("attrs").at("verified").as_string(), "yes");
  EXPECT_EQ(entries[0].find("stats"), nullptr);
  EXPECT_NE(entries[1].find("stats"), nullptr);
  // An entry without attrs omits the block entirely.
  EXPECT_EQ(entries[1].find("attrs"), nullptr);
}

TEST(Record, ProfiledStatsAttachProfileSection) {
  gpusim::LaunchStats s = sample_stats();
  s.profile.intern(kUnscopedStageName);
  StageStats& tree = s.profile.row(s.profile.intern("tree"));
  tree.smem_requests = 40;
  tree.smem_cycles = 120;
  tree.warp_epochs = 4;
  tree.lane_hist[32] = 4;

  RunRecord rec("demo_bench");
  rec.entry("profiled").stats(s);
  rec.entry("plain").stats(sample_stats());

  const Json j = rec.to_json();
  const auto& entries = j.at("entries").elements();
  ASSERT_EQ(entries.size(), 2u);
  const Json* prof = entries[0].find("profile");
  ASSERT_NE(prof, nullptr);
  // The all-zero "(unscoped)" row is skipped; only "tree" serializes.
  ASSERT_EQ(prof->size(), 1u);
  EXPECT_EQ(prof->elements()[0].at("stage").as_string(), "tree");
  EXPECT_DOUBLE_EQ(
      prof->elements()[0].at("bank_conflict_factor").as_double(), 3.0);
  // An unprofiled launch (empty table) must not grow a profile key.
  EXPECT_EQ(entries[1].find("profile"), nullptr);
}

TEST(Record, TelemetrySectionAppearsOnlyWhenAttached) {
  RunRecord rec("demo_bench");
  Json reg = Json::object();
  Json counters = Json::object();
  counters.set("service/jobs", std::int64_t{12});
  reg.set("counters", std::move(counters));
  rec.entry("with").metric("device_ms", 1.0).telemetry(std::move(reg));
  rec.entry("without").metric("device_ms", 2.0);

  const Json j = rec.to_json();
  const auto& entries = j.at("entries").elements();
  ASSERT_EQ(entries.size(), 2u);
  const Json* tel = entries[0].find("telemetry");
  ASSERT_NE(tel, nullptr);
  EXPECT_EQ(tel->at("counters").at("service/jobs").as_int(), 12);
  // Metrics-off records must keep their pre-v3 shape (satellite 6's
  // 0%-diff guard depends on it).
  EXPECT_EQ(entries[1].find("telemetry"), nullptr);
}

TEST(Record, SessionWritesRequestedFile) {
  const std::string path = ::testing::TempDir() + "accred_record_test.json";
  std::remove(path.c_str());
  {
    const char* argv[] = {"prog", "--json", path.c_str()};
    const util::Cli cli(3, const_cast<char**>(argv), {}, {"json", "trace"});
    Session session(cli, "session_bench");
    session.record().entry("row").metric("device_ms", 2.0);
    EXPECT_TRUE(session.finish());
    EXPECT_TRUE(session.finish());  // idempotent
  }
  const Json j = load_record(path);
  EXPECT_EQ(j.at("bench").as_string(), "session_bench");
  EXPECT_EQ(j.at("entries").size(), 1u);
  std::remove(path.c_str());
}

TEST(Record, EnvelopeNamesWhatNoReaderCanUse) {
  RunRecord rec("envelope_bench");
  rec.entry("row").metric("device_ms", 1.0);
  const Json good = rec.to_json();
  EXPECT_EQ(envelope_error(good), "");

  const auto with = [&](const char* key, Json value) {
    Json j = good;
    j.set(key, std::move(value));
    return envelope_error(j);
  };
  EXPECT_EQ(with("schema", "accred.trace"), "not an accred.bench record");
  EXPECT_EQ(with("schema_version", 3.0),
            "\"schema_version\": expected an integer");
  EXPECT_EQ(with("schema_version", kBenchSchemaVersion - 1),
            "schema_version v2 is not the supported v3");
  EXPECT_EQ(with("schema_version", kBenchSchemaVersion + 1),
            "schema_version v4 is not the supported v3");
  EXPECT_EQ(with("entries", Json::object()), "\"entries\": expected an array");
  Json unnamed = Json::array();
  unnamed.push(Json::object().set("name", 7));
  EXPECT_EQ(with("entries", unnamed),
            "entries[0]: expected an object with a string \"name\"");
  EXPECT_EQ(envelope_error(Json::array()), "not a JSON object");
}

TEST(Record, LoadRecordNamesTheFileItRefuses) {
  const std::string path = ::testing::TempDir() + "accred_refused.json";
  std::ofstream(path) << R"({"schema": "accred.bench", "schema_version": 3})";
  try {
    (void)load_record(path);
    ADD_FAILURE() << "a record without entries must not load";
  } catch (const RecordError& e) {
    EXPECT_EQ(std::string(e.what()), path + ": \"entries\": expected an array");
  }
  std::ofstream(path) << "{not json";
  EXPECT_THROW((void)load_record(path), RecordError);
  std::remove(path.c_str());
}

TEST(Record, SessionWithoutFlagsWritesNothing) {
  const char* argv[] = {"prog"};
  const util::Cli cli(1, const_cast<char**>(argv), {}, {"json", "trace"});
  Session session(cli, "quiet");
  EXPECT_FALSE(session.json_enabled());
  EXPECT_TRUE(session.finish());
}

}  // namespace
}  // namespace accred::obs
