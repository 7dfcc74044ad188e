#include "gpusim/racecheck.hpp"

#include <sstream>

#include "obs/profiler.hpp"

namespace accred::gpusim {

namespace {

Dim3 unflatten_thread(std::uint32_t tid, const Dim3& block_dim) {
  Dim3 t;
  t.x = tid % block_dim.x;
  t.y = (tid / block_dim.x) % block_dim.y;
  t.z = tid / (block_dim.x * block_dim.y);
  return t;
}

void render_access(std::ostream& os, const RaceAccess& a) {
  os << 't' << '(' << a.thread.x << ',' << a.thread.y << ',' << a.thread.z
     << ") " << (a.write ? "write" : "read") << " [" << a.stage << ']';
}

}  // namespace

const char* RaceReport::kind() const noexcept {
  if (first.write && second.write) return "WAW";
  if (first.write) return "RAW";
  return "WAR";
}

std::string to_string(const RaceReport& r) {
  std::ostringstream os;
  os << r.kind() << ' '
     << (r.space == RaceReport::Space::kShared ? "shared+0x" : "global 0x")
     << std::hex << r.addr << std::dec << " block(" << r.block.x << ','
     << r.block.y << ',' << r.block.z << "): ";
  render_access(os, r.first);
  os << " vs ";
  render_access(os, r.second);
  return os.str();
}

void RaceChecker::reset(std::size_t shared_bytes, std::uint32_t nwarps,
                        Dim3 block_idx, Dim3 block_dim) {
  // Arena reset: bump the generation instead of wiping the shadow arrays.
  // Slots stamped with an older generation are logically zero; they are
  // reinitialized lazily when (if) the new block touches them, so arming a
  // block costs O(warps), not O(slab granules + global words).
  if (++gen_ == 0) {
    // Generation wrap (after 2^32-1 resets): stale stamps could collide
    // with the new generation, so pay for one full clear and restart at 1.
    std::fill(shared_.begin(), shared_.end(), SharedSlot{});
    std::fill(global_.begin(), global_.end(), GlobalSlot{});
    gen_ = 1;
  }
  shared_granules_ = (shared_bytes + kGranuleBytes - 1) / kGranuleBytes;
  if (shared_.size() < shared_granules_) shared_.resize(shared_granules_);
  global_used_ = 0;
  warp_epoch_.assign(nwarps, 0);
  block_epoch_ = 0;
  block_idx_ = block_idx;
  block_dim_ = block_dim;
  races_ = 0;
  pending_.clear();
}

void RaceChecker::conflict(RaceReport::Space space, std::uint64_t addr,
                           Shadow& s, std::uint8_t kind, const Access& prior,
                           bool prior_write, const Access& cur,
                           bool cur_write) {
  races_ += 1;
  if ((s.reported & kind) != 0) return;  // one report per word per kind
  s.reported |= kind;
  if (pending_.size() >= kMaxReportsPerBlock) return;
  pending_.push_back({space, addr, prior, prior_write, cur, cur_write});
}

void RaceChecker::check_word(RaceReport::Space space, std::uint64_t addr,
                             Shadow& s, std::uint32_t tid, bool write,
                             std::uint16_t stage) {
  const Access cur{tid, block_epoch_, warp_epoch_[tid / 32], stage};
  if (write) {
    if (!ordered(s.write, tid)) {
      conflict(space, addr, s, kWaw, s.write, true, cur, true);
    }
    if (!ordered(s.read1, tid)) {
      conflict(space, addr, s, kWar, s.read1, false, cur, true);
    }
    if (!ordered(s.read2, tid)) {
      conflict(space, addr, s, kWar, s.read2, false, cur, true);
    }
    s.write = cur;
  } else {
    if (!ordered(s.write, tid)) {
      conflict(space, addr, s, kRaw, s.write, true, cur, false);
    }
    if (s.read1.tid != tid) s.read2 = s.read1;
    s.read1 = cur;
  }
}

void RaceChecker::shared_access(std::uint32_t tid, std::uint32_t offset,
                                std::uint32_t bytes, bool write,
                                std::uint16_t stage) {
  const std::uint32_t first = offset / kGranuleBytes;
  const std::uint32_t last = (offset + bytes - 1) / kGranuleBytes;
  for (std::uint32_t g = first; g <= last && g < shared_granules_; ++g) {
    SharedSlot& sl = shared_[g];
    if (sl.gen != gen_) {  // first touch this block: logically-zero slot
      sl.s = Shadow{};
      sl.gen = gen_;
    }
    check_word(RaceReport::Space::kShared,
               static_cast<std::uint64_t>(g) * kGranuleBytes, sl.s, tid,
               write, stage);
  }
}

RaceChecker::Shadow& RaceChecker::global_slot(std::uint64_t g) {
  if (global_.empty() || global_used_ * 4 >= global_.size() * 3) {
    grow_global_table();
  }
  // Fibonacci hash spreads consecutive granule indices (the common
  // streaming pattern) across the table; linear probe from there.
  const std::size_t mask = global_.size() - 1;
  std::size_t i = static_cast<std::size_t>(
                      (g * 0x9E3779B97F4A7C15ull) >> 32) &
                  mask;
  for (;;) {
    GlobalSlot& sl = global_[i];
    if (sl.gen == gen_) {
      if (sl.key == g) return sl.s;  // hit
    } else {
      // Stale or never-used slot == empty: claim it for this generation.
      sl.key = g;
      sl.gen = gen_;
      sl.s = Shadow{};
      global_used_ += 1;
      return sl.s;
    }
    i = (i + 1) & mask;
  }
}

void RaceChecker::grow_global_table() {
  const std::size_t cap = global_.empty() ? 1024 : global_.size() * 2;
  std::vector<GlobalSlot> old = std::move(global_);
  global_.assign(cap, GlobalSlot{});
  const std::size_t mask = cap - 1;
  for (const GlobalSlot& sl : old) {
    if (sl.gen != gen_) continue;  // stale entries die with the old table
    std::size_t i = static_cast<std::size_t>(
                        (sl.key * 0x9E3779B97F4A7C15ull) >> 32) &
                    mask;
    while (global_[i].gen == gen_) i = (i + 1) & mask;
    global_[i] = sl;
  }
}

void RaceChecker::global_access(std::uint32_t tid, std::uint64_t vaddr,
                                std::uint32_t bytes, bool write,
                                std::uint16_t stage) {
  const std::uint64_t first = vaddr / kGranuleBytes;
  const std::uint64_t last = (vaddr + bytes - 1) / kGranuleBytes;
  for (std::uint64_t g = first; g <= last; ++g) {
    check_word(RaceReport::Space::kGlobal, g * kGranuleBytes, global_slot(g),
               tid, write, stage);
  }
}

std::vector<RaceReport> RaceChecker::take_reports(
    const obs::StageTable* stages) const {
  auto resolve = [&](const Access& a, bool write) {
    RaceAccess out;
    out.thread = unflatten_thread(a.tid, block_dim_);
    out.write = write;
    if (stages != nullptr && a.stage < stages->rows().size()) {
      out.stage = stages->rows()[a.stage].name;
    } else {
      out.stage = obs::kUnscopedStageName;
    }
    return out;
  };
  std::vector<RaceReport> out;
  out.reserve(pending_.size());
  for (const Pending& p : pending_) {
    RaceReport r;
    r.space = p.space;
    r.addr = p.addr;
    r.block = block_idx_;
    r.first = resolve(p.first, p.first_write);
    r.second = resolve(p.second, p.second_write);
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace accred::gpusim
