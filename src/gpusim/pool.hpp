// Persistent host worker pool backing parallel multi-block simulation.
//
// CUDA guarantees the thread blocks of one launch are independent (no
// ordering, no shared mutable state except explicitly synchronized global
// memory), so the simulator is free to execute different blocks on
// different OS threads. launch() shards the flattened block range into
// contiguous ranges and runs one shard per worker; every OS thread that
// executes a shard reuses its own tls_scheduler(), so fiber stacks stay
// warm across launches. The pool itself only hands out shard indices — all
// result slots are pre-sized and written disjointly (see launch.cpp and
// DESIGN.md §7 for the determinism contract).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

namespace accred::gpusim {

/// Cooperative cancellation shared by the shards of one launch. When a
/// shard hits a fatal error it calls cancel_from(shard); every
/// *higher-numbered* shard then stops at its next checkpoint (between
/// blocks in launch.cpp, between barrier waves in the scheduler) with
/// LaunchError{kCancelled}. Lower-numbered shards keep running: shards
/// cover contiguous ascending block ranges, so only they can still produce
/// the deterministic winner — the error a serial block sweep would have
/// hit first. launch() swallows kCancelled and rethrows that winner.
class CancelFlag {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Record that `shard` faulted (atomic minimum over reporters).
  void cancel_from(std::uint32_t shard) noexcept;
  /// True when a shard numbered below `shard` has faulted.
  [[nodiscard]] bool cancelled_for(std::uint32_t shard) const noexcept;
  /// Lowest faulting shard so far, or kNone.
  [[nodiscard]] std::uint32_t first() const noexcept;

 private:
  std::atomic<std::uint32_t> first_{kNone};
};

/// Client-visible cooperative cancellation of launches (distinct from the
/// intra-launch CancelFlag above, which shards use among themselves). A
/// token is shared between the submitting client and the execution path via
/// SimOptions::cancel_token: once cancel() is observed, the next checkpoint
/// — launch entry or a barrier wave inside any block — terminates the
/// launch with a structured LaunchError{kCancelled} (the launch driver
/// canonicalizes the message, so results are bit-identical no matter which
/// shard noticed first).
///
/// cancel() is wall-clock (whenever the client thread runs), which is
/// correct but not reproducible mid-flight. For deterministic tests and
/// campaigns, cancel_at_launch(n) schedules the cancellation at the start
/// of the n-th launch that observes this token (1 = the very next): the
/// launch driver calls on_launch_begin() before simulating any block, so
/// the n-th kernel of a multi-kernel job aborts at its entry — the same
/// point on every run, for any sim-thread or worker count.
class CancelToken {
 public:
  /// Request cancellation now. Safe from any thread, idempotent.
  void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }

  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Schedule cancel() to fire when the nth subsequent launch observing
  /// this token begins (1 = the next launch). 0 clears a pending schedule.
  void cancel_at_launch(std::uint32_t nth) noexcept {
    countdown_.store(nth, std::memory_order_relaxed);
  }

  /// Launch-entry hook (called by the launch driver, not by clients):
  /// counts down a cancel_at_launch() schedule and fires it at zero.
  void on_launch_begin() noexcept;

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<std::uint32_t> countdown_{0};
};

class HostPool {
public:
  /// Process-wide pool. Workers are spawned lazily on the first parallel
  /// run (never more than needed) and persist until process exit.
  static HostPool& instance();

  /// Execute `fn(shard)` for every shard in [0, nshards). The calling
  /// thread participates, so progress is guaranteed even with zero spawned
  /// workers; idle pool workers pull the remaining shard indices from a
  /// shared counter. `fn` must tolerate concurrent invocation on distinct
  /// shards and must not throw — capture per-shard exceptions instead and
  /// signal a CancelFlag so sibling shards stop promptly (launch.cpp
  /// rethrows the lowest shard's error). Concurrent run() calls are
  /// serialized: one shard set is in flight at a time.
  void run(std::uint32_t nshards, const std::function<void(std::uint32_t)>& fn);

  /// Number of worker threads currently spawned (callers excluded).
  [[nodiscard]] std::uint32_t workers() const;

  HostPool(const HostPool&) = delete;
  HostPool& operator=(const HostPool&) = delete;
  ~HostPool();

private:
  HostPool();  // allocates state_ up front: run() stays data-race free for
               // concurrent first callers (e.g. service worker threads)
  struct Job;
  struct State;
  /// Claim and run shards until the job's counter is exhausted; returns
  /// true if this call finished the job's last shard.
  static bool drain(Job& job);
  void worker_main();
  /// Spawn workers until `want` exist (capped); call with state lock held.
  void ensure_workers_locked(std::uint32_t want);

  State* state_ = nullptr;  // owned; incomplete here to keep the header light
};

/// Default worker count for launches with SimOptions::sim_threads == 0:
/// std::thread::hardware_concurrency(), unless set_default_sim_threads()
/// overrode it for the process — benches and examples wire their
/// --sim-threads flag through it; 0 restores the hardware default.
[[nodiscard]] std::uint32_t default_sim_threads();
void set_default_sim_threads(std::uint32_t n);

/// Effective shard count for one launch: `requested`
/// (SimOptions::sim_threads) if nonzero, else default_sim_threads();
/// clamped so there is never more than one shard per block and never more
/// than kMaxSimThreads shards.
[[nodiscard]] std::uint32_t resolve_sim_threads(std::uint32_t requested,
                                                std::uint64_t blocks);

/// Upper bound on shards/workers per launch (a safety valve for
/// pathological --sim-threads values, far above any real host).
inline constexpr std::uint32_t kMaxSimThreads = 256;

/// One contiguous slab of fiber stacks, recycled across thread blocks and
/// launches. Each tls_scheduler() owns one, with a pooled fiber per stack:
/// a block only reallocates when its shape outgrows every block the
/// scheduler has seen, so steady-state simulation performs zero stack
/// allocations. The chain lends the most recently freed fiber first, so
/// lanes that never suspend keep reusing one hot stack, and only stacks
/// that a lane actually ran on are ever committed.
class FiberStackPool {
public:
  /// Ensure capacity for `count` stacks of `stack_bytes` each (16-aligned).
  /// Returns true when the slab was (re)allocated — every fiber bound to
  /// the old slab must be rebuilt by the caller. Existing capacity is
  /// reused verbatim otherwise.
  bool ensure(std::size_t count, std::size_t stack_bytes);

  /// Base address of stack `i` (valid until the next reallocating ensure()).
  [[nodiscard]] std::byte* stack(std::size_t i) noexcept {
    return slab_.get() + i * (stack_bytes_ + kStagger);
  }
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] std::size_t stack_bytes() const noexcept {
    return stack_bytes_;
  }

  /// Extra bytes between consecutive stacks. Stack sizes are round numbers
  /// (the 64 KiB default is a power of two), which would place every
  /// stack's *top* — the bytes a context switch reads and writes — at the
  /// same L1 set: a 128-thread block whose lanes all park at a barrier then
  /// holds 128 fibers and cycles their hot stack tops through a handful of
  /// cache ways. 320 is 16-aligned (the fiber ABI requirement) but not a
  /// multiple of the 4 KiB set span, so successive tops walk all L1 sets.
  static constexpr std::size_t kStagger = 320;

private:
  std::unique_ptr<std::byte[]> slab_;
  std::size_t count_ = 0;
  std::size_t stack_bytes_ = 0;
};

}  // namespace accred::gpusim
