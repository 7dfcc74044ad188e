// Deterministic fault injection for the SIMT simulator — the probe half of
// the robustness layer (DESIGN.md §11). A seeded, per-launch FaultPlan
// (SimOptions::faults / --faults) arms faults at named sites keyed by
// prof_scope stage plus (block, warp) coordinates:
//
//   * bitflip       — flip one seeded bit of the nth matching shared/global
//                     store's payload (silent data corruption),
//   * skip_barrier  — the matching threads return from their nth
//                     syncthreads without rendezvousing (a deleted or
//                     divergent barrier; pairs with racecheck/watchdog),
//   * warp_abort    — throw LaunchError{kWarpAbort} from the nth
//                     instrumented device operation of a matching warp,
//   * alloc_fail    — fail the nth device allocation with a matching label
//                     (armed on the Device, not per block — device.hpp).
//
// Spec grammar (';'-separated faults):
//   kind[@stage][:key=value,...,sticky]
//   keys: block=N (flattened id, -1 = every block), warp=N (-1 = any),
//         nth=N (0-based), seed=N, bit=N (else seeded choice)
//   e.g. "bitflip@staging:block=3,nth=2,seed=7;skip_barrier@tree:warp=0"
//
// Determinism: all trigger counters live in per-block state advanced by the
// block's single host thread in simulation order, and seeds mix only the
// (flat block, event ordinal) pair — so a campaign is bit-reproducible for
// any --sim-threads. Non-sticky faults are stripped by the degradation
// executor after the first failed attempt (a deterministic injector would
// otherwise fail every retry identically); sticky faults persist so the
// ladder itself gets exercised.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gpusim/dim3.hpp"

namespace accred::obs {
class StageTable;
}

namespace accred::gpusim {

enum class FaultKind : std::uint8_t {
  kBitFlip,
  kSkipBarrier,
  kWarpAbort,
  kAllocFail,
};

[[nodiscard]] const char* to_string(FaultKind k) noexcept;

/// One armed fault site.
struct Fault {
  static constexpr std::uint32_t kAnyBit = 0xffffffffu;

  FaultKind kind = FaultKind::kBitFlip;
  /// prof_scope stage the site is keyed to ("" = any stage). For
  /// kAllocFail this is the allocation label instead.
  std::string stage;
  std::int64_t block = -1;  ///< flattened block id; -1 = every block
  std::int32_t warp = -1;   ///< warp within the block; -1 = any warp
  std::uint64_t nth = 0;    ///< fire on the nth matching event (0-based)
  std::uint64_t seed = 1;   ///< mixed into the bit choice for kBitFlip
  std::uint32_t bit = kAnyBit;  ///< explicit bit index, else seeded
  bool sticky = false;      ///< survives the executor's retry stripping

  /// Render back to one spec clause (parse round-trips).
  [[nodiscard]] std::string to_spec() const;
};

/// A parsed --faults spec: the launch-wide list of armed fault sites.
class FaultPlan {
 public:
  /// Parse a spec string (grammar above). Throws std::invalid_argument
  /// with the offending clause on malformed input.
  [[nodiscard]] static FaultPlan parse(std::string_view spec);

  [[nodiscard]] bool empty() const noexcept { return faults_.empty(); }
  [[nodiscard]] const std::vector<Fault>& faults() const noexcept {
    return faults_;
  }
  [[nodiscard]] bool has_alloc_faults() const noexcept;

  [[nodiscard]] std::string to_spec() const;
  /// The spec of only the sticky faults — what the degradation executor
  /// re-arms after a failed attempt ("" when none are sticky).
  [[nodiscard]] std::string sticky_spec() const;

 private:
  std::vector<Fault> faults_;
};

/// One fault that actually fired, resolved to coordinates and stage name;
/// merged block-ordered into LaunchStats::fault_events (deterministic).
struct FaultEvent {
  FaultKind kind = FaultKind::kBitFlip;
  Dim3 block{};
  std::uint32_t warp = 0;
  std::string stage;
  std::string detail;  ///< e.g. "flipped bit 12 of 8-byte shared store @0x40"
};

[[nodiscard]] std::string to_string(const FaultEvent& e);

/// Per-block injector state. Owned by the BlockScheduler (like the
/// RaceChecker) and reset per block; every counter advances on the block's
/// single host thread in simulation order, so firing decisions are
/// independent of how blocks shard across host threads.
class BlockFaults {
 public:
  /// Event caps, mirroring racecheck's report caps: the counters behind
  /// them stay exact, only the recorded FaultEvent list is bounded.
  static constexpr std::size_t kMaxEventsPerBlock = 16;
  static constexpr std::size_t kMaxEventsPerLaunch = 64;

  /// Arm for a new block: keeps the plan's device-side faults whose block
  /// selector matches. `stages` (nullable) resolves stage names; the
  /// scheduler arms the stage table whenever a plan is present.
  void reset(const FaultPlan* plan, std::uint64_t flat_block, Dim3 block_idx,
             const obs::StageTable* stages);

  [[nodiscard]] bool armed() const noexcept { return !arms_.empty(); }

  /// Count one instrumented device operation (any ld/st/lds/sts, barrier or
  /// syncwarp entry) of thread `tid`; throws LaunchError{kWarpAbort} when a
  /// warp_abort site fires here.
  void on_instr(std::uint32_t tid, std::uint16_t stage,
                std::uint32_t barrier_seq);

  /// Bitflip hook, called with the payload a store is about to commit; the
  /// nth matching store has one bit flipped in place.
  void on_store(std::uint32_t tid, std::uint16_t stage, std::byte* data,
                std::uint32_t bytes, bool shared_space, std::uint64_t addr);

  /// True when this thread's upcoming syncthreads should be skipped
  /// outright: its nth arrival at a *matching* (stage, warp) barrier site.
  [[nodiscard]] bool skip_barrier(std::uint32_t tid, std::uint16_t stage,
                                  std::uint32_t barrier_seq);

  /// The faults that fired in this block, in firing order (capped).
  [[nodiscard]] std::vector<FaultEvent> take_events() {
    return std::move(events_);
  }

 private:
  struct Arm {
    const Fault* fault = nullptr;
    std::uint64_t count = 0;  ///< matching events seen so far
    bool fired = false;
    /// kSkipBarrier only: per-thread count of matching barrier arrivals
    /// (tid-indexed, grown on demand; a block has at most 1024 threads).
    std::vector<std::uint64_t> per_tid;
  };

  [[nodiscard]] bool matches(const Fault& f, std::uint32_t tid,
                             std::uint16_t stage) const;
  void record(const Fault& f, std::uint32_t tid, std::uint16_t stage,
              std::string detail);
  [[nodiscard]] std::string stage_name(std::uint16_t stage) const;

  std::vector<Arm> arms_;
  std::vector<FaultEvent> events_;
  const obs::StageTable* stages_ = nullptr;
  std::uint64_t flat_block_ = 0;
  Dim3 block_idx_{};
};

}  // namespace accred::gpusim
