#include "gpusim/faultinject.hpp"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "gpusim/error.hpp"
#include "obs/profiler.hpp"

namespace accred::gpusim {

namespace {

/// splitmix64: the seeded bit choice for bitflip faults. Mixing only
/// (seed, flat block, event ordinal) keeps campaigns reproducible for any
/// host-thread count.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

FaultKind parse_kind(std::string_view s, std::string_view clause) {
  if (s == "bitflip") return FaultKind::kBitFlip;
  if (s == "skip_barrier") return FaultKind::kSkipBarrier;
  if (s == "warp_abort") return FaultKind::kWarpAbort;
  if (s == "alloc_fail") return FaultKind::kAllocFail;
  throw std::invalid_argument("fault spec: unknown kind '" + std::string(s) +
                              "' in clause '" + std::string(clause) + "'");
}

std::int64_t parse_int(std::string_view v, std::string_view clause) {
  const std::string s(v);
  char* end = nullptr;
  const long long n = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') {
    throw std::invalid_argument("fault spec: bad number '" + s +
                                "' in clause '" + std::string(clause) + "'");
  }
  return n;
}

Fault parse_clause(std::string_view clause) {
  Fault f;
  std::string_view rest = clause;
  std::string_view head = rest;
  if (const auto colon = rest.find(':'); colon != std::string_view::npos) {
    head = rest.substr(0, colon);
    rest = rest.substr(colon + 1);
  } else {
    rest = {};
  }
  if (const auto at = head.find('@'); at != std::string_view::npos) {
    f.stage = std::string(head.substr(at + 1));
    head = head.substr(0, at);
  }
  f.kind = parse_kind(head, clause);

  while (!rest.empty()) {
    std::string_view kv = rest;
    if (const auto comma = rest.find(','); comma != std::string_view::npos) {
      kv = rest.substr(0, comma);
      rest = rest.substr(comma + 1);
    } else {
      rest = {};
    }
    if (kv.empty()) continue;
    const auto eq = kv.find('=');
    if (eq == std::string_view::npos) {
      if (kv == "sticky") {
        f.sticky = true;
        continue;
      }
      throw std::invalid_argument("fault spec: unknown flag '" +
                                  std::string(kv) + "' in clause '" +
                                  std::string(clause) + "'");
    }
    const std::string_view key = kv.substr(0, eq);
    const std::int64_t val = parse_int(kv.substr(eq + 1), clause);
    if (key == "block") {
      f.block = val;
    } else if (key == "warp") {
      f.warp = static_cast<std::int32_t>(val);
    } else if (key == "nth") {
      f.nth = static_cast<std::uint64_t>(val);
    } else if (key == "seed") {
      f.seed = static_cast<std::uint64_t>(val);
    } else if (key == "bit") {
      f.bit = static_cast<std::uint32_t>(val);
    } else {
      throw std::invalid_argument("fault spec: unknown key '" +
                                  std::string(key) + "' in clause '" +
                                  std::string(clause) + "'");
    }
  }
  return f;
}

}  // namespace

const char* to_string(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kBitFlip: return "bitflip";
    case FaultKind::kSkipBarrier: return "skip_barrier";
    case FaultKind::kWarpAbort: return "warp_abort";
    case FaultKind::kAllocFail: return "alloc_fail";
  }
  return "unknown";
}

std::string Fault::to_spec() const {
  std::ostringstream os;
  os << to_string(kind);
  if (!stage.empty()) os << '@' << stage;
  const char* sep = ":";
  const auto emit = [&](const char* key, std::int64_t v) {
    os << sep << key << '=' << v;
    sep = ",";
  };
  if (block != -1) emit("block", block);
  if (warp != -1) emit("warp", warp);
  if (nth != 0) emit("nth", static_cast<std::int64_t>(nth));
  if (seed != 1) emit("seed", static_cast<std::int64_t>(seed));
  if (bit != kAnyBit) emit("bit", static_cast<std::int64_t>(bit));
  if (sticky) {
    os << sep << "sticky";
  }
  return os.str();
}

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  while (!spec.empty()) {
    std::string_view clause = spec;
    if (const auto semi = spec.find(';'); semi != std::string_view::npos) {
      clause = spec.substr(0, semi);
      spec = spec.substr(semi + 1);
    } else {
      spec = {};
    }
    // Trim surrounding spaces so shell-quoted lists read naturally.
    while (!clause.empty() && clause.front() == ' ') clause.remove_prefix(1);
    while (!clause.empty() && clause.back() == ' ') clause.remove_suffix(1);
    if (clause.empty()) continue;
    plan.faults_.push_back(parse_clause(clause));
  }
  return plan;
}

bool FaultPlan::has_alloc_faults() const noexcept {
  for (const Fault& f : faults_) {
    if (f.kind == FaultKind::kAllocFail) return true;
  }
  return false;
}

std::string FaultPlan::to_spec() const {
  std::string out;
  for (const Fault& f : faults_) {
    if (!out.empty()) out += ';';
    out += f.to_spec();
  }
  return out;
}

std::string FaultPlan::sticky_spec() const {
  std::string out;
  for (const Fault& f : faults_) {
    if (!f.sticky) continue;
    if (!out.empty()) out += ';';
    out += f.to_spec();
  }
  return out;
}

std::string to_string(const FaultEvent& e) {
  std::ostringstream os;
  os << to_string(e.kind) << " fired in block=(" << e.block.x << ','
     << e.block.y << ',' << e.block.z << ") warp=" << e.warp;
  if (!e.stage.empty()) os << " stage=" << e.stage;
  if (!e.detail.empty()) os << ": " << e.detail;
  return os.str();
}

void BlockFaults::reset(const FaultPlan* plan, std::uint64_t flat_block,
                        Dim3 block_idx, const obs::StageTable* stages) {
  arms_.clear();
  events_.clear();
  stages_ = stages;
  flat_block_ = flat_block;
  block_idx_ = block_idx;
  if (plan == nullptr) return;
  for (const Fault& f : plan->faults()) {
    if (f.kind == FaultKind::kAllocFail) continue;  // armed on the Device
    if (f.block != -1 && f.block != static_cast<std::int64_t>(flat_block)) {
      continue;
    }
    arms_.push_back(Arm{&f, 0, false, {}});
  }
}

std::string BlockFaults::stage_name(std::uint16_t stage) const {
  if (stages_ == nullptr || stage >= stages_->rows().size()) return {};
  return stages_->rows()[stage].name;
}

bool BlockFaults::matches(const Fault& f, std::uint32_t tid,
                          std::uint16_t stage) const {
  if (f.warp != -1 && static_cast<std::uint32_t>(f.warp) != tid / 32) {
    return false;
  }
  return f.stage.empty() || f.stage == stage_name(stage);
}

void BlockFaults::record(const Fault& f, std::uint32_t tid,
                         std::uint16_t stage, std::string detail) {
  if (events_.size() >= kMaxEventsPerBlock) return;
  FaultEvent e;
  e.kind = f.kind;
  e.block = block_idx_;
  e.warp = tid / 32;
  e.stage = stage_name(stage);
  e.detail = std::move(detail);
  events_.push_back(std::move(e));
}

void BlockFaults::on_instr(std::uint32_t tid, std::uint16_t stage,
                           std::uint32_t barrier_seq) {
  for (Arm& arm : arms_) {
    const Fault& f = *arm.fault;
    if (f.kind != FaultKind::kWarpAbort || arm.fired) continue;
    if (!matches(f, tid, stage)) continue;
    if (arm.count++ != f.nth) continue;
    arm.fired = true;
    record(f, tid, stage, "aborted at instrumented op " + std::to_string(f.nth));
    LaunchErrorInfo info;
    info.code = LaunchErrorCode::kWarpAbort;
    info.message = "injected warp abort (" + f.to_spec() + ")";
    info.stage = stage_name(stage);
    info.block = block_idx_;
    info.warp = tid / 32;
    info.barrier_seq = barrier_seq;
    info.injected = true;
    info.has_site = true;
    throw LaunchError(std::move(info));
  }
}

void BlockFaults::on_store(std::uint32_t tid, std::uint16_t stage,
                           std::byte* data, std::uint32_t bytes,
                           bool shared_space, std::uint64_t addr) {
  for (Arm& arm : arms_) {
    const Fault& f = *arm.fault;
    if (f.kind != FaultKind::kBitFlip || arm.fired) continue;
    if (!matches(f, tid, stage)) continue;
    if (arm.count++ != f.nth) continue;
    arm.fired = true;
    const std::uint32_t nbits = bytes * 8;
    const std::uint32_t bit =
        f.bit != Fault::kAnyBit
            ? f.bit % nbits
            : static_cast<std::uint32_t>(
                  mix64(f.seed ^ (flat_block_ * 0x9E3779B97F4A7C15ull) ^
                        f.nth) %
                  nbits);
    data[bit / 8] ^= std::byte{static_cast<unsigned char>(1U << (bit % 8))};
    std::ostringstream detail;
    detail << "flipped bit " << bit << " of " << bytes << "-byte "
           << (shared_space ? "shared" : "global") << " store @0x" << std::hex
           << addr;
    record(f, tid, stage, detail.str());
  }
}

bool BlockFaults::skip_barrier(std::uint32_t tid, std::uint16_t stage,
                               std::uint32_t barrier_seq) {
  bool skip = false;
  for (Arm& arm : arms_) {
    const Fault& f = *arm.fault;
    if (f.kind != FaultKind::kSkipBarrier) continue;
    if (!matches(f, tid, stage)) continue;
    // Per-thread count of *matching* arrivals, so a stage-keyed site
    // ("skip_barrier@tree") drops the nth barrier *of that stage* for every
    // matching thread — a uniform deletion across the selected warp(s) —
    // regardless of how many barriers earlier stages executed.
    if (arm.per_tid.size() <= tid) arm.per_tid.resize(tid + 1, 0);
    if (arm.per_tid[tid]++ != f.nth) continue;
    skip = true;
    if (!arm.fired) {
      arm.fired = true;
      record(f, tid, stage,
             "matching syncthreads " + std::to_string(f.nth) +
                 " skipped (thread's barrier " + std::to_string(barrier_seq) +
                 ")");
    }
  }
  return skip;
}

}  // namespace accred::gpusim
