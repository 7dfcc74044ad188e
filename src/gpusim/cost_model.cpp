#include "gpusim/cost_model.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>

namespace accred::gpusim {

LaunchStats& LaunchStats::operator+=(const LaunchStats& o) {
  blocks += o.blocks;
  threads += o.threads;
  gmem_requests += o.gmem_requests;
  gmem_segments += o.gmem_segments;
  gmem_bytes += o.gmem_bytes;
  smem_requests += o.smem_requests;
  smem_cycles += o.smem_cycles;
  barriers += o.barriers;
  syncwarps += o.syncwarps;
  alu_units += o.alu_units;
  device_time_ns += o.device_time_ns;
  wall_time_ns += o.wall_time_ns;
  profile.merge(o.profile);
  racecheck = racecheck || o.racecheck;
  races += o.races;
  for (const RaceReport& r : o.race_reports) {
    if (race_reports.size() >= RaceChecker::kMaxReportsPerLaunch) break;
    race_reports.push_back(r);
  }
  barrier_exit_divergence += o.barrier_exit_divergence;
  barrier_site_mismatch += o.barrier_site_mismatch;
  faults_armed = faults_armed || o.faults_armed;
  for (const FaultEvent& e : o.fault_events) {
    if (fault_events.size() >= BlockFaults::kMaxEventsPerLaunch) break;
    fault_events.push_back(e);
  }
  // Keep the first failure across accumulated launches: multi-kernel
  // strategies report the launch that broke first.
  if (error.code == LaunchErrorCode::kNone &&
      o.error.code != LaunchErrorCode::kNone) {
    error = o.error;
  }
  return *this;
}

double coalescing_efficiency(const LaunchStats& s) {
  if (s.gmem_segments == 0) return 1.0;
  // Per-lane useful bytes divided by bytes moved in 128B transactions.
  // 1.0 = perfectly coalesced; << 1 = strided/scattered; > 1 happens when
  // lanes broadcast-read the same word (one transaction serves the warp
  // several times over), up to 32.
  return static_cast<double>(s.gmem_bytes) /
         (static_cast<double>(s.gmem_segments) * 128.0);
}

double bank_conflict_factor(const LaunchStats& s) {
  if (s.smem_requests == 0) return 1.0;
  return static_cast<double>(s.smem_cycles) /
         static_cast<double>(s.smem_requests);
}

void WarpLog::reset(const CostParams& params, obs::StageTable* prof) {
  params_ = &params;
  prof_ = prof;
  epoch_cost_ = 0;
  dirty_ = false;
  gvec_.clear();  // capacity is retained across blocks (arena reuse)
  svec_.clear();
  ghead_ = gcount_ = shead_ = scount_ = 0;
  gbase_ = sbase_ = 0;
  gk_.reset(0);
  sk_.reset(0);
  alu_.reset(0);
  lane_stage_.fill(0);
  epoch_active_.clear();
  gmem_requests = gmem_segments = gmem_bytes = 0;
  smem_requests = smem_cycles = 0;
  alu_total = 0;
}

void WarpLog::mark_active(std::uint32_t lane) {
  const std::uint16_t stage = lane_stage_[lane];
  for (auto& [s, mask] : epoch_active_) {
    if (s == stage) {
      mask |= 1U << lane;
      return;
    }
  }
  epoch_active_.emplace_back(stage, 1U << lane);
}

void WarpLog::finalize_global(const GlobalGroup& g) {
  if (g.base_line < 0) return;  // empty group (no lane reached this index)
  const std::uint64_t segments = std::popcount(g.bitmap) + g.overflow;
  gmem_requests += 1;
  gmem_segments += segments;
  gmem_bytes += g.bytes;
  epoch_cost_ += static_cast<double>(segments) * params_->gmem_segment_ns;
  if (prof_) {
    obs::StageStats& row = prof_->row(g.stage);
    row.gmem_requests += 1;
    row.gmem_segments += segments;
    row.gmem_bytes += g.bytes;
  }
}

void WarpLog::finalize_shared(const SharedGroup& g) {
  if (g.n == 0) return;
  // Conflict degree: max number of *distinct words* mapped to one bank.
  // Accesses to the same word in the same bank broadcast (no serialization).
  // Two words are duplicates only if they map to the same bank, so the
  // dedup runs per bank against the generation-stamped scratch sets —
  // O(accesses) per group instead of a quadratic all-pairs scan.
  const std::uint64_t gen = ++conflict_gen_;
  std::uint8_t degree = 1;
  for (std::uint8_t i = 0; i < g.n; ++i) {
    const std::uint32_t w = g.word[i];
    const std::uint32_t bank = w % kWarpSize;
    if (bank_gen_[bank] != gen) {
      bank_gen_[bank] = gen;
      bank_cnt_[bank] = 0;
    }
    std::uint8_t& cnt = bank_cnt_[bank];
    auto& words = bank_words_[bank];
    bool dup = false;
    for (std::uint8_t j = 0; j < cnt; ++j) {
      if (words[j] == w) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    words[cnt++] = w;
    degree = std::max(degree, cnt);
  }
  smem_requests += 1;
  smem_cycles += degree;
  epoch_cost_ += static_cast<double>(degree) * params_->smem_cycle_ns;
  if (prof_) {
    obs::StageStats& row = prof_->row(g.stage);
    row.smem_requests += 1;
    row.smem_cycles += degree;
  }
}

void WarpLog::global_access_open(std::uint32_t lane, std::uint64_t k,
                                 std::uint64_t vaddr, std::uint32_t bytes) {
  assert(lane < kWarpSize);
  if (k < gbase_) {
    // The group this access belongs to was retired by window overflow;
    // account for it as a standalone request.
    GlobalGroup late{};
    apply_global(late, lane, vaddr, bytes);
    finalize_global(late);
    return;
  }
  apply_global(open_global(k), lane, vaddr, bytes);
}

WarpLog::GlobalGroup& WarpLog::open_global(std::uint64_t k) {
  // Window overflow: retire the oldest group early (splits a logical
  // group in two, slightly overcounting segments, but bounds memory).
  while (k >= gbase_ + kGlobalWindow) {
    finalize_global(gvec_[ghead_]);
    ++ghead_;
    --gcount_;
    ++gbase_;
  }
  // Compact once the dead prefix dominates, keeping storage bounded by the
  // window even under sustained overflow.
  if (ghead_ >= 4096 && ghead_ * 2 >= gvec_.size()) {
    gvec_.erase(gvec_.begin(),
                gvec_.begin() + static_cast<std::ptrdiff_t>(ghead_));
    ghead_ = 0;
  }
  while (gcount_ <= k - gbase_) {
    gvec_.emplace_back();
    ++gcount_;
  }
  return gvec_[ghead_ + (k - gbase_)];
}

void WarpLog::shared_access_open(std::uint32_t lane, std::uint64_t k,
                                 std::uint32_t offset) {
  assert(lane < kWarpSize);
  if (k < sbase_) {
    SharedGroup late{};
    late.word[late.n++] = offset / 4;
    late.stage = lane_stage_[lane];
    finalize_shared(late);
    return;
  }
  SharedGroup& g = open_shared(k);
  if (g.n == 0) g.stage = lane_stage_[lane];
  if (g.n < kWarpSize) g.word[g.n++] = offset / 4;
}

WarpLog::SharedGroup& WarpLog::open_shared(std::uint64_t k) {
  while (k >= sbase_ + kSharedWindow) {
    finalize_shared(svec_[shead_]);
    ++shead_;
    --scount_;
    ++sbase_;
  }
  if (shead_ >= 4096 && shead_ * 2 >= svec_.size()) {
    svec_.erase(svec_.begin(),
                svec_.begin() + static_cast<std::ptrdiff_t>(shead_));
    shead_ = 0;
  }
  while (scount_ <= k - sbase_) {
    svec_.emplace_back();
    ++scount_;
  }
  return svec_[shead_ + (k - sbase_)];
}

WarpLog::GlobalGroup* WarpLog::next_global_group(LaneMask mask) {
  std::uint64_t k = 0;
  if (!gk_.common(mask, k)) return nullptr;
  const std::uint64_t rel = k - gbase_;  // k < gbase_ wraps past gcount_
  GlobalGroup* g = nullptr;
  if (rel < gcount_) {
    g = &gvec_[ghead_ + rel];
  } else if (k >= gbase_) {
    g = &open_global(k);
  } else {
    return nullptr;  // late: each lane books a standalone request
  }
  gk_.set(mask, k + 1);
  return g;
}

WarpLog::SharedGroup* WarpLog::next_shared_group(LaneMask mask) {
  std::uint64_t k = 0;
  if (!sk_.common(mask, k)) return nullptr;
  const std::uint64_t rel = k - sbase_;
  SharedGroup* g = nullptr;
  if (rel < scount_) {
    g = &svec_[shead_ + rel];
  } else if (k >= sbase_) {
    g = &open_shared(k);
    if (g->n == 0) {
      g->stage = lane_stage_[static_cast<std::size_t>(std::countr_zero(mask))];
    }
  } else {
    return nullptr;
  }
  sk_.set(mask, k + 1);
  return g;
}

void WarpLog::flush_pending() {
  if (gcount_ != 0) {
    for (std::size_t i = 0; i < gcount_; ++i) {
      finalize_global(gvec_[ghead_ + i]);
    }
    gbase_ += gcount_;
    gvec_.clear();
    ghead_ = gcount_ = 0;
  }
  if (scount_ != 0) {
    for (std::size_t i = 0; i < scount_; ++i) {
      finalize_shared(svec_[shead_ + i]);
    }
    sbase_ += scount_;
    svec_.clear();
    shead_ = scount_ = 0;
  }
}

double WarpLog::end_epoch() {
  // Idle epoch (the warp logged nothing since the last barrier): every fold
  // below is a no-op — lane counters are already aligned, the ALU max is
  // zero, and zero-cost epochs contribute +0.0 — so skip it wholesale.
  // Warps parked across many waves (the warp-synchronous tail) hit this.
  if (!dirty_) return 0.0;
  dirty_ = false;
  flush_pending();
  // Re-anchor group indexing so post-barrier accesses group afresh: after a
  // barrier all lanes are aligned again, at the furthest lane's ordinal.
  gbase_ = gk_.max();
  sbase_ = sk_.max();
  gk_.reset(gbase_);
  sk_.reset(sbase_);

  const double max_alu = alu_.max();
  alu_.reset(0);
  alu_total += max_alu;
  epoch_cost_ += max_alu * params_->alu_ns;

  // Divergence bookkeeping: per stage touched this epoch, one histogram
  // entry at the number of lanes that were active in it.
  if (prof_) {
    for (const auto& [stage, mask] : epoch_active_) {
      obs::StageStats& row = prof_->row(stage);
      row.warp_epochs += 1;
      row.lane_hist[std::popcount(mask)] += 1;
    }
    epoch_active_.clear();
  }

  const double cost = epoch_cost_;
  epoch_cost_ = 0;
  return cost;
}

double estimate_device_time(const CostParams& p, const DeviceLimits& lim,
                            const std::vector<double>& block_costs_ns,
                            std::uint64_t gmem_bytes) {
  std::vector<double> sm_time(lim.num_sms, 0.0);
  for (std::size_t b = 0; b < block_costs_ns.size(); ++b) {
    sm_time[b % lim.num_sms] += block_costs_ns[b];
  }
  const double busiest =
      block_costs_ns.empty()
          ? 0.0
          : *std::max_element(sm_time.begin(), sm_time.end());
  // Device-wide DRAM bandwidth floor.
  const double dram_ns = static_cast<double>(gmem_bytes) /
                         (p.dev_bandwidth_gbs * 1e9) * 1e9;
  return p.launch_overhead_ns + std::max(busiest, dram_ns);
}

}  // namespace accred::gpusim
