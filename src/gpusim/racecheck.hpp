// Dynamic shared/global-memory race detection for the SIMT simulator — the
// simulator's answer to `cuda-memcheck --tool racecheck`.
//
// Model: within one thread block, two accesses to the same memory word by
// different threads conflict when at least one is a write and no barrier
// orders them. Ordering is tracked with *barrier intervals* (epochs):
//   * syncthreads advances the block epoch — accesses from an older block
//     epoch are ordered before everything after the barrier;
//   * syncwarp advances that warp's epoch — accesses by the *same warp*
//     from an older warp epoch are ordered, but a syncwarp never orders
//     accesses across warps. This models warp-synchronous tails (§3.1.1 of
//     the paper) exactly: dropping a syncthreads in the last-warp steps is
//     fine, dropping one while multiple warps still participate is a race.
//
// Detection is per 4-byte granule (the shared-memory bank width): the
// shadow state per word is the last writer plus the two most recent
// readers from distinct threads, each stamped with its epoch pair and
// prof_scope stage. Conflicts are recorded as RaceReports — deduplicated
// per (word, kind) and capped — never thrown; `races` counts every
// conflicting pair exactly.
//
// Scope: one checker per block (blocks are independent by the CUDA
// contract, and the simulator shards them across host threads), so
// cross-block global-memory races are out of scope. ThreadCtx::touch_global
// traffic is not checked either: it models content-free transactions (e.g.
// accumulator spills), so no data flows through those addresses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/dim3.hpp"

namespace accred::obs {
class StageTable;
}

namespace accred::gpusim {

/// One side of a detected conflict.
struct RaceAccess {
  Dim3 thread{};       ///< threadIdx of the accessing thread
  bool write = false;  ///< access kind (false = read)
  std::string stage;   ///< prof_scope stage name at access time
};

/// One detected conflict: two unordered accesses to the same word from
/// different threads of one block, at least one of them a write.
struct RaceReport {
  enum class Space : std::uint8_t { kShared, kGlobal };
  Space space = Space::kShared;
  /// Granule-aligned byte offset into the shared slab (kShared) or device
  /// virtual address (kGlobal).
  std::uint64_t addr = 0;
  Dim3 block{};        ///< blockIdx of the racing block
  RaceAccess first;    ///< earlier access in simulation order
  RaceAccess second;   ///< later access (the one that exposed the race)

  /// Hazard kind from the two access kinds: "WAW", "RAW" (read after
  /// write), or "WAR" (write after read).
  [[nodiscard]] const char* kind() const noexcept;
};

/// One-line human rendering ("WAR shared+0x40 block(0,0,0): ...").
[[nodiscard]] std::string to_string(const RaceReport& r);

/// Per-block shadow-memory race detector. Owned by the BlockScheduler and
/// reset per block; fed by ThreadCtx's ld/st/lds/sts hooks and by the
/// scheduler's barrier-release sites. Everything is private to the block's
/// host thread — reports merge in flattened block order in launch.cpp, so
/// racecheck output is deterministic for any sim_threads.
class RaceChecker {
public:
  /// Detection granule: the 4-byte shared-memory bank width. Wider accesses
  /// shadow every granule they cover.
  static constexpr std::uint32_t kGranuleBytes = 4;
  /// Report caps; the `races` counter stays exact past them.
  static constexpr std::size_t kMaxReportsPerBlock = 64;
  static constexpr std::size_t kMaxReportsPerLaunch = 256;

  /// Arm for a new block: the shared-memory shadow and the per-block
  /// global-word shadow map both start empty.
  void reset(std::size_t shared_bytes, std::uint32_t nwarps, Dim3 block_idx,
             Dim3 block_dim);

  void shared_access(std::uint32_t tid, std::uint32_t offset,
                     std::uint32_t bytes, bool write, std::uint16_t stage);
  void global_access(std::uint32_t tid, std::uint64_t vaddr,
                     std::uint32_t bytes, bool write, std::uint16_t stage);

  /// Epoch advancement, called by the scheduler at the release point of
  /// each barrier wave / warp rendezvous.
  void on_syncthreads() noexcept { block_epoch_ += 1; }
  void on_syncwarp(std::uint32_t warp) noexcept { warp_epoch_[warp] += 1; }

  /// Conflicting access pairs detected in this block so far (exact).
  [[nodiscard]] std::uint64_t races() const noexcept { return races_; }

  /// Resolve the recorded reports (thread coordinates from the block shape,
  /// stage names from `stages`, which may be null) — called once at block
  /// end, before the scheduler discards the stage table.
  [[nodiscard]] std::vector<RaceReport> take_reports(
      const obs::StageTable* stages) const;

private:
  static constexpr std::uint32_t kNoTid = 0xffffffffu;

  /// Stamp of one access: who, in which barrier intervals, doing what.
  struct Access {
    std::uint32_t tid = kNoTid;
    std::uint32_t block_epoch = 0;
    std::uint32_t warp_epoch = 0;
    std::uint16_t stage = 0;
  };
  /// Shadow state of one granule. Two reader slots keep the most recent
  /// readers from distinct threads, so A-reads / B-reads / B-writes still
  /// reports the WAR against A.
  struct Shadow {
    Access write;
    Access read1;
    Access read2;
    std::uint8_t reported = 0;  ///< per-kind dedup bits (kWaw/kRaw/kWar)
  };
  /// Unresolved report (stage ids, linear tids) recorded at access time.
  struct Pending {
    RaceReport::Space space;
    std::uint64_t addr;
    Access first;
    bool first_write;
    Access second;
    bool second_write;
  };

  static constexpr std::uint8_t kWaw = 1;
  static constexpr std::uint8_t kRaw = 2;
  static constexpr std::uint8_t kWar = 4;

  /// True when `prior` happens-before an access by `tid` now.
  [[nodiscard]] bool ordered(const Access& prior,
                             std::uint32_t tid) const noexcept {
    if (prior.tid == kNoTid || prior.tid == tid) return true;
    if (prior.block_epoch != block_epoch_) return true;  // syncthreads since
    const std::uint32_t w = tid / 32;
    return prior.tid / 32 == w && prior.warp_epoch != warp_epoch_[w];
  }

  /// Arena slot for one shared granule: the shadow plus the generation it
  /// was last touched in. reset() bumps `gen_` instead of clearing the
  /// vector, so arming a block is O(1) in the slab size; a slot whose
  /// stamp lags the current generation is logically zero and reinitialized
  /// lazily on first access (DESIGN.md §12).
  struct SharedSlot {
    Shadow s;
    std::uint32_t gen = 0;  ///< 0 = never used (gen_ starts at 1)
  };
  /// Open-addressing slot for one global granule, same generation scheme.
  /// A slot whose stamp lags the generation counts as empty for probing:
  /// within a generation every probe chain is intact (stale slots are
  /// claimed on insert), and no code ever iterates the table, so replacing
  /// the former unordered_map cannot reorder reports.
  struct GlobalSlot {
    std::uint64_t key = 0;  ///< granule index (vaddr / kGranuleBytes)
    std::uint32_t gen = 0;
    Shadow s;
  };

  void check_word(RaceReport::Space space, std::uint64_t addr, Shadow& s,
                  std::uint32_t tid, bool write, std::uint16_t stage);
  void conflict(RaceReport::Space space, std::uint64_t addr, Shadow& s,
                std::uint8_t kind, const Access& prior, bool prior_write,
                const Access& cur, bool cur_write);
  /// Find-or-insert the shadow of global granule `g` (linear probing).
  [[nodiscard]] Shadow& global_slot(std::uint64_t g);
  void grow_global_table();

  std::vector<SharedSlot> shared_;  ///< grow-only, one per slab granule
  std::size_t shared_granules_ = 0; ///< this block's slab size in granules
  std::vector<GlobalSlot> global_;  ///< pow2-sized open-addressing table
  std::size_t global_used_ = 0;     ///< current-generation occupied slots
  std::uint32_t gen_ = 0;           ///< bumped per reset(); 0 = never
  std::vector<std::uint32_t> warp_epoch_;
  std::uint32_t block_epoch_ = 0;
  Dim3 block_idx_{};
  Dim3 block_dim_{};
  std::uint64_t races_ = 0;
  std::vector<Pending> pending_;
};

}  // namespace accred::gpusim
