#include "gpusim/cost_model.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace accred::gpusim {
namespace {

class WarpLogTest : public ::testing::Test {
protected:
  CostParams params;
  WarpLog log;
  void SetUp() override { log.reset(params); }
};

TEST_F(WarpLogTest, FullyCoalescedWarpIsOneSegment) {
  // 32 lanes load consecutive 4-byte words starting at a 128B boundary.
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    log.global_access(lane, 0x1000 + lane * 4, 4);
  }
  (void)log.end_epoch();
  EXPECT_EQ(log.gmem_requests, 1u);
  EXPECT_EQ(log.gmem_segments, 1u);
  EXPECT_EQ(log.gmem_bytes, 128u);
}

TEST_F(WarpLogTest, StridedAccessTouchesOneSegmentPerLane) {
  // 128-byte stride: worst case, one transaction per lane.
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    log.global_access(lane, 0x1000 + std::uint64_t(lane) * 128, 4);
  }
  (void)log.end_epoch();
  EXPECT_EQ(log.gmem_requests, 1u);
  EXPECT_EQ(log.gmem_segments, 32u);
}

TEST_F(WarpLogTest, BroadcastIsOneSegment) {
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    log.global_access(lane, 0x2000, 8);
  }
  (void)log.end_epoch();
  EXPECT_EQ(log.gmem_segments, 1u);
}

TEST_F(WarpLogTest, DoubleWordCoalescedIsTwoSegments) {
  // 32 lanes x 8 bytes = 256 bytes = 2 x 128B lines.
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    log.global_access(lane, 0x4000 + lane * 8, 8);
  }
  (void)log.end_epoch();
  EXPECT_EQ(log.gmem_segments, 2u);
}

TEST_F(WarpLogTest, MisalignedRunStraddlesExtraSegment) {
  // Consecutive words starting 64 bytes into a line: spans two lines.
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    log.global_access(lane, 0x1040 + lane * 4, 4);
  }
  (void)log.end_epoch();
  EXPECT_EQ(log.gmem_segments, 2u);
}

TEST_F(WarpLogTest, SequentialAccessesFormSeparateGroups) {
  // Each lane does two accesses; lanes run sequentially (lane 0 fully
  // first), yet grouping must pair the k-th access of every lane.
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    log.global_access(lane, 0x1000 + lane * 4, 4);        // group 0
    log.global_access(lane, 0x8000 + lane * 4, 4);        // group 1
  }
  (void)log.end_epoch();
  EXPECT_EQ(log.gmem_requests, 2u);
  EXPECT_EQ(log.gmem_segments, 2u);
}

TEST_F(WarpLogTest, PartialWarpStillOneRequest) {
  for (std::uint32_t lane = 0; lane < 7; ++lane) {
    log.global_access(lane, 0x1000 + lane * 4, 4);
  }
  (void)log.end_epoch();
  EXPECT_EQ(log.gmem_requests, 1u);
  EXPECT_EQ(log.gmem_segments, 1u);
}

TEST_F(WarpLogTest, BackwardStrideWithinWindowIsExact) {
  // Descending addresses: bitmap is anchored below the first line seen.
  for (std::uint32_t lane = 0; lane < 8; ++lane) {
    log.global_access(lane, 0x8000 - std::uint64_t(lane) * 128, 4);
  }
  (void)log.end_epoch();
  EXPECT_EQ(log.gmem_segments, 8u);
}

TEST_F(WarpLogTest, ConflictFreeSharedAccessCostsOneCycle) {
  // 32 lanes hit 32 different banks.
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    log.shared_access(lane, lane * 4, 4);
  }
  (void)log.end_epoch();
  EXPECT_EQ(log.smem_requests, 1u);
  EXPECT_EQ(log.smem_cycles, 1u);
}

TEST_F(WarpLogTest, TwoWayBankConflictCostsTwoCycles) {
  // Stride of 2 words: lanes 0 and 16 share bank 0, etc.
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    log.shared_access(lane, lane * 8, 4);
  }
  (void)log.end_epoch();
  EXPECT_EQ(log.smem_cycles, 2u);
}

TEST_F(WarpLogTest, ThirtyTwoWayConflictIsWorstCase) {
  // Stride of 32 words: every lane hits bank 0 with a distinct word.
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    log.shared_access(lane, lane * 32 * 4, 4);
  }
  (void)log.end_epoch();
  EXPECT_EQ(log.smem_cycles, 32u);
}

TEST_F(WarpLogTest, SameWordBroadcastDoesNotConflict) {
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    log.shared_access(lane, 64, 4);
  }
  (void)log.end_epoch();
  EXPECT_EQ(log.smem_cycles, 1u);
}

TEST_F(WarpLogTest, AluChargeIsWarpMaxPerEpoch) {
  log.alu(0, 10);
  log.alu(1, 4);
  (void)log.end_epoch();
  log.alu(2, 7);
  (void)log.end_epoch();
  EXPECT_DOUBLE_EQ(log.alu_total, 17.0);
}

TEST_F(WarpLogTest, EpochCostSumsComponents) {
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    log.global_access(lane, 0x1000 + lane * 4, 4);  // 1 segment
    log.shared_access(lane, lane * 4, 4);           // 1 cycle
    log.alu(lane, 5);
  }
  const double cost = log.end_epoch();
  // ld/st helpers are not involved here; exact composition:
  const double expected =
      params.gmem_segment_ns + params.smem_cycle_ns + 5 * params.alu_ns;
  EXPECT_NEAR(cost, expected, 1e-9);
}

TEST_F(WarpLogTest, EpochRealignsLaneCounters) {
  // Lane 0 does 3 accesses, lane 1 does 1; after the epoch both must group
  // their next access together again.
  log.global_access(0, 0x1000, 4);
  log.global_access(0, 0x2000, 4);
  log.global_access(0, 0x3000, 4);
  log.global_access(1, 0x1004, 4);
  (void)log.end_epoch();
  EXPECT_EQ(log.gmem_requests, 3u);
  log.global_access(0, 0x9000, 4);
  log.global_access(1, 0x9004, 4);
  (void)log.end_epoch();
  EXPECT_EQ(log.gmem_requests, 4u);
  EXPECT_EQ(log.gmem_segments, 4u);  // 3 + 1 coalesced pair
}

// ---- Whole-warp booking equals per-lane booking ---------------------------
//
// A warp kernel books each warp instruction through one *_lanes call; the
// lane engine books the same lanes one at a time in ascending lane order.
// Both must leave every tally, ALU total and epoch cost bit-equal.

/// One warp instruction (or barrier) of a seeded program.
struct WarpOp {
  enum Kind { kGlobal, kShared, kAlu, kBarrier } kind = kBarrier;
  LaneMask mask = 0;
  std::array<std::uint64_t, WarpLog::kWarpSize> addr{};  ///< vaddr / offset
  std::uint32_t bytes = 4;
  double units = 0;
  /// Book through the per-lane calls on both logs (a lane view's access in
  /// a warp kernel), so the two forms mix on the warp log.
  bool lane_calls = false;
};

void book_per_lane(WarpLog& log, const WarpOp& op) {
  for_each_lane(op.mask, [&](std::uint32_t l) {
    switch (op.kind) {
      case WarpOp::kGlobal:
        log.global_access_alu1(l, op.addr[l], op.bytes);
        break;
      case WarpOp::kShared:
        log.shared_access_alu1(l, static_cast<std::uint32_t>(op.addr[l]),
                               op.bytes);
        break;
      case WarpOp::kAlu:
        log.alu(l, op.units);
        break;
      case WarpOp::kBarrier:
        break;
    }
  });
}

void book_warp(WarpLog& log, const WarpOp& op) {
  if (op.lane_calls) {
    book_per_lane(log, op);
    return;
  }
  switch (op.kind) {
    case WarpOp::kGlobal:
      log.global_access_alu1_lanes(op.mask, op.addr.data(), op.bytes);
      break;
    case WarpOp::kShared: {
      std::array<std::uint32_t, WarpLog::kWarpSize> off{};
      for (std::uint32_t l = 0; l < WarpLog::kWarpSize; ++l) {
        off[l] = static_cast<std::uint32_t>(op.addr[l]);
      }
      log.shared_access_alu1_lanes(op.mask, off.data(), op.bytes);
      break;
    }
    case WarpOp::kAlu:
      log.alu_lanes(op.mask, op.units);
      break;
    case WarpOp::kBarrier:
      break;
  }
}

/// Two logs fed the same instructions, one per booking form. Every barrier
/// flushes (as a warp pass ends) and closes the epoch, and its costs must
/// be bit-equal.
class BookingPair {
public:
  BookingPair() {
    warp_.reset(params_);
    lane_.reset(params_);
  }
  void book(const WarpOp& op) {
    if (op.kind == WarpOp::kBarrier) {
      barrier();
      return;
    }
    book_warp(warp_, op);
    book_per_lane(lane_, op);
  }
  void barrier() {
    warp_.flush_pending();
    lane_.flush_pending();
    const double w = warp_.end_epoch();
    const double l = lane_.end_epoch();
    EXPECT_EQ(w, l) << "epoch " << epoch_;
    ++epoch_;
  }
  /// Close the last epoch and compare every tally.
  void expect_same() {
    barrier();
    EXPECT_EQ(warp_.gmem_requests, lane_.gmem_requests);
    EXPECT_EQ(warp_.gmem_segments, lane_.gmem_segments);
    EXPECT_EQ(warp_.gmem_bytes, lane_.gmem_bytes);
    EXPECT_EQ(warp_.smem_requests, lane_.smem_requests);
    EXPECT_EQ(warp_.smem_cycles, lane_.smem_cycles);
    EXPECT_EQ(warp_.alu_total, lane_.alu_total);
  }
  [[nodiscard]] const WarpLog& lane_log() const { return lane_; }

private:
  CostParams params_;
  WarpLog warp_;
  WarpLog lane_;
  std::size_t epoch_ = 0;
};

void expect_same_booking(const std::vector<WarpOp>& ops) {
  BookingPair pair;
  for (const WarpOp& op : ops) pair.book(op);
  pair.expect_same();
}

/// A seeded program mixing every mask and address shape the strategies
/// issue, plus a few the tests want for the edges of the model.
std::vector<WarpOp> seeded_program(std::uint64_t seed, std::size_t count) {
  util::SplitMix64 rng(seed);
  std::vector<WarpOp> ops;
  for (std::size_t n = 0; n < count; ++n) {
    WarpOp op;
    const std::uint64_t kind = rng.next_below(20);
    if (kind == 0) {
      ops.push_back(op);  // barrier
      continue;
    }
    op.kind = kind < 10 ? WarpOp::kGlobal
                        : (kind < 16 ? WarpOp::kShared : WarpOp::kAlu);
    switch (rng.next_below(5)) {
      case 0:
      case 1:
        op.mask = kAllLanes;
        break;
      case 2:  // prefix: the tail of a window loop, a tree step
        op.mask = (LaneMask{1} << (1 + rng.next_below(31))) - 1;
        break;
      case 3:  // one lane: a row's lead lane, the sink
        op.mask = LaneMask{1} << rng.next_below(32);
        break;
      default:
        op.mask = static_cast<LaneMask>(rng.next());
        break;
    }
    op.lane_calls = rng.next_below(8) == 0;
    op.units = 0.25 * static_cast<double>(1 + rng.next_below(12));
    const std::uint64_t base = 0x10000 + 4 * rng.next_below(1 << 16);
    const std::uint64_t shape = rng.next_below(6);
    op.bytes = rng.next_below(2) == 0 ? 4 : 8;
    for (std::uint32_t l = 0; l < WarpLog::kWarpSize; ++l) {
      if (op.kind == WarpOp::kShared) {
        const std::uint64_t word =
            shape == 0 ? 5                       // broadcast
            : shape == 1 ? l                     // conflict-free
            : shape == 2 ? 2 * l                 // two-way conflict
            : shape == 3 ? 32 * l                // 32-way conflict
                         : rng.next_below(512);  // scattered
        op.addr[l] = word * 4;
        continue;
      }
      op.addr[l] =
          shape == 0   ? base                                 // broadcast
          : shape == 1 ? base + std::uint64_t{l} * op.bytes   // contiguous
          : shape == 2 ? base + std::uint64_t{l} * 3 * 128    // past bitmap
          : shape == 3 ? base + 124 + std::uint64_t{l} * 128  // straddles
          : shape == 4 ? base + (1 << 20) - std::uint64_t{l} * 128  // down
                       : base + 8 * rng.next_below(1 << 14);  // scattered
    }
    ops.push_back(op);
  }
  return ops;
}

TEST(WarpBooking, SeededProgramsBookLikeLanes) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    expect_same_booking(seeded_program(seed, 600));
  }
}

TEST(WarpBooking, DivergedLanesFallBackAndRealign) {
  // A prefix runs ahead (lanes at different ordinals), the whole warp then
  // books from unequal ordinals, and after the barrier it is aligned again.
  std::vector<WarpOp> ops;
  WarpOp ld;
  ld.kind = WarpOp::kGlobal;
  for (std::uint32_t l = 0; l < WarpLog::kWarpSize; ++l) {
    ld.addr[l] = 0x4000 + l * 4;
  }
  WarpOp prefix = ld;
  prefix.mask = 0xFFFF;
  WarpOp all = ld;
  all.mask = kAllLanes;
  ops = {prefix, prefix, all, all, WarpOp{}, all, prefix, all};
  expect_same_booking(ops);
}

TEST(WarpBooking, LateAccessesAfterWindowRetirement) {
  // Lane 0 alone runs past the pending-group window, retiring the oldest
  // groups; the other lanes then book ordinals the window already retired,
  // and each such access is a standalone request in both forms.
  for (const WarpOp::Kind kind : {WarpOp::kGlobal, WarpOp::kShared}) {
    const bool global = kind == WarpOp::kGlobal;
    const std::size_t window =
        global ? WarpLog::kGlobalWindow : WarpLog::kSharedWindow;
    BookingPair pair;
    WarpOp lead;
    lead.kind = kind;
    lead.mask = 1;
    for (std::size_t n = 0; n < window + 3; ++n) {
      lead.addr[0] = global ? 0x1000 + 128 * (n % 4096) : 4 * (n % 1024);
      pair.book(lead);
    }
    WarpOp rest;
    rest.kind = kind;
    rest.mask = ~LaneMask{1};
    for (std::uint32_t l = 0; l < WarpLog::kWarpSize; ++l) {
      rest.addr[l] = global ? 0x9000 + 4 * l : 4 * l;
    }
    pair.book(rest);
    pair.book(rest);
    rest.mask = kAllLanes;
    pair.book(rest);
    pair.expect_same();
    // Lane 0 booked window + 4 groups; lanes 1..31 hit the three retired
    // ordinals 0..2 late, one standalone request each.
    const std::uint64_t requests = global ? pair.lane_log().gmem_requests
                                          : pair.lane_log().smem_requests;
    EXPECT_EQ(requests, window + 4 + 3 * 31);
  }
}

TEST(WarpBooking, AlignedWarpKeepsItsOrdinalAcrossEpochs) {
  // A warp that only ever books whole-warp instructions stays aligned; its
  // epochs must still group afresh after each barrier.
  CostParams params;
  WarpLog log;
  log.reset(params);
  std::array<std::uint64_t, WarpLog::kWarpSize> addr{};
  for (std::uint32_t l = 0; l < WarpLog::kWarpSize; ++l) {
    addr[l] = 0x1000 + l * 4;
  }
  for (int epoch = 0; epoch < 3; ++epoch) {
    log.global_access_alu1_lanes(kAllLanes, addr.data(), 4);
    log.global_access_alu1_lanes(kAllLanes, addr.data(), 4);
    log.alu_lanes(kAllLanes, 2);
    const double cost = log.end_epoch();
    EXPECT_DOUBLE_EQ(cost, 2 * params.gmem_segment_ns + 4 * params.alu_ns);
  }
  EXPECT_EQ(log.gmem_requests, 6u);
  EXPECT_EQ(log.gmem_segments, 6u);
  EXPECT_DOUBLE_EQ(log.alu_total, 12.0);
}

TEST(EstimateDeviceTime, SingleBlockIsLaunchPlusCost) {
  CostParams p;
  DeviceLimits lim;
  const double t = estimate_device_time(p, lim, {1000.0}, 0);
  EXPECT_DOUBLE_EQ(t, p.launch_overhead_ns + 1000.0);
}

TEST(EstimateDeviceTime, BlocksSpreadAcrossSms) {
  CostParams p;
  DeviceLimits lim;
  // 13 equal blocks: one per SM; same time as a single block.
  const std::vector<double> costs(13, 1000.0);
  const double t = estimate_device_time(p, lim, costs, 0);
  EXPECT_DOUBLE_EQ(t, p.launch_overhead_ns + 1000.0);
}

TEST(EstimateDeviceTime, TwoBlocksLeaveElevenSmsIdle) {
  CostParams p;
  DeviceLimits lim;
  const double t2 = estimate_device_time(p, lim, {1000.0, 1000.0}, 0);
  std::vector<double> costs26(26, 1000.0);
  const double t26 = estimate_device_time(p, lim, costs26, 0);
  // 26 blocks over 13 SMs take 2 waves; 2 blocks also finish in "one wave",
  // so 13x the work only costs 2x the time: the occupancy effect behind the
  // paper's slow single-level vector/worker cases.
  EXPECT_DOUBLE_EQ(t2, p.launch_overhead_ns + 1000.0);
  EXPECT_DOUBLE_EQ(t26, p.launch_overhead_ns + 2000.0);
}

TEST(EstimateDeviceTime, DramFloorApplies) {
  CostParams p;
  DeviceLimits lim;
  // 150 GB at 150 GB/s = 1 s floor regardless of tiny block costs.
  const double t = estimate_device_time(p, lim, {10.0}, 150ULL * 1000000000ULL);
  EXPECT_NEAR(t, p.launch_overhead_ns + 1e9, 1e3);
}

TEST(LaunchStats, AccumulateAddsFields) {
  LaunchStats a;
  a.blocks = 2;
  a.gmem_segments = 10;
  a.device_time_ns = 5;
  LaunchStats b;
  b.blocks = 3;
  b.gmem_segments = 1;
  b.device_time_ns = 7;
  a += b;
  EXPECT_EQ(a.blocks, 5u);
  EXPECT_EQ(a.gmem_segments, 11u);
  EXPECT_DOUBLE_EQ(a.device_time_ns, 12.0);
}

TEST(DerivedMetrics, CoalescingEfficiency) {
  LaunchStats s;
  s.gmem_bytes = 128;
  s.gmem_segments = 2;
  EXPECT_DOUBLE_EQ(coalescing_efficiency(s), 0.5);
}

TEST(DerivedMetrics, BankConflictFactor) {
  LaunchStats s;
  s.smem_requests = 4;
  s.smem_cycles = 8;
  EXPECT_DOUBLE_EQ(bank_conflict_factor(s), 2.0);
}

}  // namespace
}  // namespace accred::gpusim
