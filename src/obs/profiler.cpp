#include "obs/profiler.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace accred::obs {

StageStats& StageStats::operator+=(const StageStats& o) {
  gmem_requests += o.gmem_requests;
  gmem_segments += o.gmem_segments;
  gmem_bytes += o.gmem_bytes;
  smem_requests += o.smem_requests;
  smem_cycles += o.smem_cycles;
  barriers += o.barriers;
  syncwarps += o.syncwarps;
  warp_epochs += o.warp_epochs;
  alu_units += o.alu_units;
  for (std::size_t i = 0; i < lane_hist.size(); ++i) {
    lane_hist[i] += o.lane_hist[i];
  }
  return *this;
}

double stage_coalescing_efficiency(const StageStats& s) {
  if (s.gmem_segments == 0) return 1.0;
  return static_cast<double>(s.gmem_bytes) /
         (static_cast<double>(s.gmem_segments) * 128.0);
}

double stage_bank_conflict_factor(const StageStats& s) {
  if (s.smem_requests == 0) return 1.0;
  return static_cast<double>(s.smem_cycles) /
         static_cast<double>(s.smem_requests);
}

double stage_divergence(const StageStats& s) {
  std::uint64_t epochs = 0;
  std::uint64_t active_lanes = 0;
  for (std::size_t n = 0; n < s.lane_hist.size(); ++n) {
    epochs += s.lane_hist[n];
    active_lanes += s.lane_hist[n] * n;
  }
  if (epochs == 0) return 0.0;
  return 1.0 - static_cast<double>(active_lanes) /
                   (static_cast<double>(epochs) * StageStats::kLanes);
}

std::uint16_t StageTable::intern(std::string_view name) {
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (rows_[i].name == name) return static_cast<std::uint16_t>(i);
  }
  rows_.push_back(Row{std::string(name), {}});
  return static_cast<std::uint16_t>(rows_.size() - 1);
}

const StageTable::Row* StageTable::find(std::string_view name) const {
  for (const Row& r : rows_) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

void StageTable::merge(const StageTable& o) {
  for (const Row& r : o.rows_) {
    row(intern(r.name)) += r.stats;
  }
}

void StageTable::reset_stats() {
  for (Row& r : rows_) r.stats = StageStats{};
}

namespace {

[[nodiscard]] bool row_is_empty(const StageStats& s) {
  return s.gmem_requests == 0 && s.gmem_segments == 0 && s.gmem_bytes == 0 &&
         s.smem_requests == 0 && s.smem_cycles == 0 && s.barriers == 0 &&
         s.syncwarps == 0 && s.warp_epochs == 0 && s.alu_units == 0;
}

}  // namespace

Json profile_to_json(const StageTable& table) {
  Json arr = Json::array();
  for (const StageTable::Row& r : table.rows()) {
    if (row_is_empty(r.stats)) continue;
    Json j = Json::object();
    j.set("stage", r.name);
    j.set("gmem_requests", r.stats.gmem_requests);
    j.set("gmem_segments", r.stats.gmem_segments);
    j.set("gmem_bytes", r.stats.gmem_bytes);
    j.set("smem_requests", r.stats.smem_requests);
    j.set("smem_cycles", r.stats.smem_cycles);
    j.set("barriers", r.stats.barriers);
    j.set("syncwarps", r.stats.syncwarps);
    j.set("warp_epochs", r.stats.warp_epochs);
    j.set("alu_units", r.stats.alu_units);
    j.set("coalescing_efficiency", stage_coalescing_efficiency(r.stats));
    j.set("bank_conflict_factor", stage_bank_conflict_factor(r.stats));
    j.set("divergence", stage_divergence(r.stats));
    Json hist = Json::array();
    for (const std::uint64_t h : r.stats.lane_hist) hist.push(h);
    j.set("lane_occupancy", std::move(hist));
    arr.push(std::move(j));
  }
  return arr;
}

StageTable profile_from_json(const Json& j) {
  StageTable table;
  for (const Json& row : j.elements()) {
    StageStats& s = table.row(table.intern(row.at("stage").as_string()));
    s.gmem_requests = static_cast<std::uint64_t>(row.at("gmem_requests").as_int());
    s.gmem_segments = static_cast<std::uint64_t>(row.at("gmem_segments").as_int());
    s.gmem_bytes = static_cast<std::uint64_t>(row.at("gmem_bytes").as_int());
    s.smem_requests = static_cast<std::uint64_t>(row.at("smem_requests").as_int());
    s.smem_cycles = static_cast<std::uint64_t>(row.at("smem_cycles").as_int());
    s.barriers = static_cast<std::uint64_t>(row.at("barriers").as_int());
    s.syncwarps = static_cast<std::uint64_t>(row.at("syncwarps").as_int());
    s.warp_epochs = static_cast<std::uint64_t>(row.at("warp_epochs").as_int());
    s.alu_units = row.at("alu_units").as_double();
    const Json& hist = row.at("lane_occupancy");
    if (hist.size() != s.lane_hist.size()) {
      throw std::runtime_error("profile stage '" +
                               row.at("stage").as_string() +
                               "': lane_occupancy must have 33 buckets");
    }
    for (std::size_t i = 0; i < s.lane_hist.size(); ++i) {
      s.lane_hist[i] =
          static_cast<std::uint64_t>(hist.elements()[i].as_int());
    }
  }
  return table;
}

void print_profile(std::ostream& os, const StageTable& table) {
  // nvprof-style: one row per stage, counters then derived metrics.
  struct Col {
    const char* head;
    int width;
  };
  static constexpr Col cols[] = {
      {"stage", 16},     {"gmem req", 10},  {"gmem seg", 10},
      {"coal eff", 9},   {"smem req", 10},  {"bank factor", 12},
      {"alu", 12},       {"barriers", 9},   {"syncwarps", 10},
      {"epochs", 9},     {"diverg %", 9},
  };
  for (const Col& c : cols) {
    os << std::left << std::setw(c.width) << c.head << ' ';
  }
  os << '\n';
  const auto old_flags = os.flags();
  for (const StageTable::Row& r : table.rows()) {
    if (row_is_empty(r.stats)) continue;
    std::ostringstream alu;
    alu << std::fixed << std::setprecision(0) << r.stats.alu_units;
    std::ostringstream eff;
    eff << std::fixed << std::setprecision(3)
        << stage_coalescing_efficiency(r.stats);
    std::ostringstream bank;
    bank << std::fixed << std::setprecision(2)
         << stage_bank_conflict_factor(r.stats);
    std::ostringstream div;
    div << std::fixed << std::setprecision(1)
        << stage_divergence(r.stats) * 100.0;
    os << std::left << std::setw(cols[0].width) << r.name << ' '
       << std::setw(cols[1].width) << r.stats.gmem_requests << ' '
       << std::setw(cols[2].width) << r.stats.gmem_segments << ' '
       << std::setw(cols[3].width) << eff.str() << ' '
       << std::setw(cols[4].width) << r.stats.smem_requests << ' '
       << std::setw(cols[5].width) << bank.str() << ' '
       << std::setw(cols[6].width) << alu.str() << ' '
       << std::setw(cols[7].width) << r.stats.barriers << ' '
       << std::setw(cols[8].width) << r.stats.syncwarps << ' '
       << std::setw(cols[9].width) << r.stats.warp_epochs << ' '
       << std::setw(cols[10].width) << div.str() << '\n';
  }
  os.flags(old_flags);
}

}  // namespace accred::obs
