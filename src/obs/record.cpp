#include "obs/record.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace accred::obs {

namespace {

Json dim3_to_json(const gpusim::Dim3& d) {
  Json j = Json::array();
  j.push(static_cast<std::int64_t>(d.x));
  j.push(static_cast<std::int64_t>(d.y));
  j.push(static_cast<std::int64_t>(d.z));
  return j;
}

Json race_access_to_json(const gpusim::RaceAccess& a) {
  Json j = Json::object();
  j.set("thread", dim3_to_json(a.thread));
  j.set("access", a.write ? "write" : "read");
  j.set("stage", a.stage);
  return j;
}

Json race_report_to_json(const gpusim::RaceReport& r) {
  Json j = Json::object();
  j.set("kind", r.kind());
  j.set("space",
        r.space == gpusim::RaceReport::Space::kShared ? "shared" : "global");
  j.set("addr", static_cast<std::int64_t>(r.addr));
  j.set("block", dim3_to_json(r.block));
  j.set("first", race_access_to_json(r.first));
  j.set("second", race_access_to_json(r.second));
  return j;
}

Json fault_event_to_json(const gpusim::FaultEvent& e) {
  Json j = Json::object();
  j.set("kind", to_string(e.kind));
  j.set("block", dim3_to_json(e.block));
  j.set("warp", static_cast<std::int64_t>(e.warp));
  if (!e.stage.empty()) j.set("stage", e.stage);
  j.set("detail", e.detail);
  return j;
}

Json error_to_json(const gpusim::LaunchErrorInfo& info) {
  Json j = Json::object();
  j.set("code", to_string(info.code));
  j.set("message", info.message);
  if (!info.stage.empty()) j.set("stage", info.stage);
  if (info.injected) j.set("injected", true);
  if (info.has_site) {
    j.set("block", dim3_to_json(info.block));
    j.set("warp", static_cast<std::int64_t>(info.warp));
    j.set("barrier_seq", static_cast<std::int64_t>(info.barrier_seq));
    j.set("step", static_cast<std::int64_t>(info.step));
  }
  return j;
}

}  // namespace

std::string dim3_field_string(const Json& obj, std::string_view key) {
  const Json& c = obj.at(key);
  if (c.kind() != Json::Kind::kArray || c.size() != 3) {
    throw std::runtime_error("\"" + std::string(key) +
                             "\": expected an array of 3 coordinates");
  }
  return '(' + std::to_string(c.elements()[0].as_int()) + ',' +
         std::to_string(c.elements()[1].as_int()) + ',' +
         std::to_string(c.elements()[2].as_int()) + ')';
}

Json stats_to_json(const gpusim::LaunchStats& s,
                   const gpusim::DeviceLimits& lim) {
  Json j = Json::object();
  j.set("blocks", s.blocks);
  j.set("threads", s.threads);
  j.set("gmem_requests", s.gmem_requests);
  j.set("gmem_segments", s.gmem_segments);
  j.set("gmem_bytes", s.gmem_bytes);
  j.set("smem_requests", s.smem_requests);
  j.set("smem_cycles", s.smem_cycles);
  j.set("barriers", s.barriers);
  j.set("syncwarps", s.syncwarps);
  j.set("alu_units", s.alu_units);
  j.set("device_time_ms", s.device_time_ns / 1e6);
  j.set("wall_time_ms", s.wall_time_ns / 1e6);
  j.set("coalescing_efficiency", gpusim::coalescing_efficiency(s));
  j.set("bank_conflict_factor", gpusim::bank_conflict_factor(s));
  // Round-robin block assignment (cost_model.cpp): a launch with B blocks
  // populates min(B, num_sms) SMs.
  const double populated = static_cast<double>(
      std::min<std::uint64_t>(s.blocks, lim.num_sms));
  j.set("sm_occupancy", lim.num_sms ? populated / lim.num_sms : 0.0);
  // Racecheck fields appear only when the launch ran under the detector,
  // keeping records (and the committed baselines) bit-identical otherwise.
  if (s.racecheck) j.set("races", s.races);
  // Divergence tallies, the structured error, and the fault-injection block
  // follow the same rule: emitted only when nonzero / armed, so clean
  // baseline records never change shape.
  if (s.barrier_exit_divergence > 0) {
    j.set("barrier_exit_divergence", s.barrier_exit_divergence);
  }
  if (s.barrier_site_mismatch > 0) {
    j.set("barrier_site_mismatch", s.barrier_site_mismatch);
  }
  if (s.error) j.set("error", error_to_json(s.error));
  if (s.faults_armed) {
    Json f = Json::object();
    f.set("armed", true);
    Json events = Json::array();
    for (const gpusim::FaultEvent& e : s.fault_events) {
      events.push(fault_event_to_json(e));
    }
    f.set("events", std::move(events));
    j.set("faults", std::move(f));
  }
  return j;
}

BenchEntry& BenchEntry::metric(const std::string& key, double value) {
  metrics_.set(key, value);
  return *this;
}

BenchEntry& BenchEntry::attr(const std::string& key, std::string value) {
  attrs_.set(key, Json(std::move(value)));
  return *this;
}

BenchEntry& BenchEntry::stats(const gpusim::LaunchStats& s,
                              const gpusim::DeviceLimits& lim) {
  stats_ = stats_to_json(s, lim);
  if (!s.profile.empty()) profile(s.profile);
  if (s.racecheck) {
    // Present (possibly empty) whenever the detector ran, so
    // tools/racecheck_report can tell "clean" from "not checked".
    Json arr = Json::array();
    for (const gpusim::RaceReport& r : s.race_reports) {
      arr.push(race_report_to_json(r));
    }
    races_ = std::move(arr);
  }
  return *this;
}

BenchEntry& BenchEntry::profile(const StageTable& table) {
  profile_ = profile_to_json(table);
  return *this;
}

BenchEntry& BenchEntry::telemetry(Json registry_dump) {
  telemetry_ = std::move(registry_dump);
  return *this;
}

Json BenchEntry::to_json() const {
  Json j = Json::object();
  j.set("name", name_);
  j.set("metrics", metrics_);
  if (attrs_.size() > 0) j.set("attrs", attrs_);
  if (stats_) j.set("stats", *stats_);
  if (profile_) j.set("profile", *profile_);
  if (races_) j.set("races", *races_);
  if (telemetry_) j.set("telemetry", *telemetry_);
  return j;
}

BenchEntry& RunRecord::entry(const std::string& name) {
  for (BenchEntry& e : entries_) {
    if (e.name() == name) return e;
  }
  return entries_.emplace_back(name);
}

void RunRecord::meta(const std::string& key, std::string value) {
  meta_.set(key, Json(std::move(value)));
}

void RunRecord::meta(const std::string& key, double value) {
  meta_.set(key, value);
}

void RunRecord::meta(const std::string& key, std::int64_t value) {
  meta_.set(key, value);
}

Json RunRecord::to_json() const {
  Json j = Json::object();
  j.set("schema", kBenchSchema);
  j.set("schema_version", kBenchSchemaVersion);
  j.set("bench", bench_);
  if (meta_.size() > 0) j.set("meta", meta_);
  Json entries = Json::array();
  for (const BenchEntry& e : entries_) entries.push(e.to_json());
  j.set("entries", std::move(entries));
  return j;
}

bool RunRecord::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  to_json().dump(out, 2);
  out << '\n';
  out.flush();
  return static_cast<bool>(out);
}

Session::Session(const util::Cli& cli, std::string bench_name)
    : record_(std::move(bench_name)), json_path_(cli.get("json", "")) {
  if (const std::string t = cli.get("trace", ""); !t.empty()) {
    trace_configure(t);
  } else {
    trace_configure_from_env();
  }
}

bool Session::finish() {
  if (finished_) return true;
  finished_ = true;
  bool ok = true;
  if (!json_path_.empty()) {
    ok = record_.write(json_path_);
    if (ok) {
      std::cerr << "[obs] wrote " << json_path_ << " ("
                << record_.entry_count() << " entries)\n";
    } else {
      std::cerr << "[obs] FAILED to write " << json_path_ << "\n";
    }
  }
  if (trace_enabled()) {
    if (trace_flush()) {
      std::cerr << "[obs] wrote trace " << trace_path() << "\n";
    } else {
      std::cerr << "[obs] FAILED to write trace " << trace_path() << "\n";
      ok = false;
    }
  }
  return ok;
}

Session::~Session() { finish(); }

}  // namespace accred::obs
