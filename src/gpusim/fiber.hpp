// Stackful fibers used to give simulated GPU threads suspendable execution
// contexts, so device code can call `syncthreads()` anywhere (including
// inside nested loops) exactly as CUDA kernels do.
//
// On x86_64 a hand-rolled callee-saved-register context switch is used
// (a few ns per switch); other platforms fall back to POSIX ucontext. The
// two backends differ only in the register switch and the initial frame.
//
// Two protocols drive a fiber (DESIGN.md §12):
//   * FastChain: how the block scheduler runs lanes. A lane gets a pooled
//     fiber only when a pass first enters it; lanes that finish without
//     suspending run back to back on one fiber with no context switch, and
//     each suspending lane transfers control straight into the next lane
//     (one switch per suspension, no scheduler frame in between);
//   * resume()/yield(): the plain pairwise protocol for a standalone fiber
//     (two switches per suspension), used by the fiber unit tests and the
//     switch-cost probes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <span>
#include <vector>

#if !defined(ACCRED_FIBER_ASM)
#include <ucontext.h>
#endif

// ThreadSanitizer cannot see through a stack switch; under -fsanitize=thread
// (the -DACCRED_TSAN=ON preset that checks the host-parallel launch path,
// see pool.hpp) every switch is annotated with TSan's fiber API.
#if defined(__SANITIZE_THREAD__)
#define ACCRED_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ACCRED_TSAN_FIBERS 1
#endif
#endif

// AddressSanitizer tracks one stack per thread unless told about every
// switch; under -fsanitize=address (the -DACCRED_ASAN=ON preset) each
// switch is annotated with ASan's fiber API, so exceptions unwinding on a
// fiber and re-armed stacks are checked against the right stack.
#if defined(__SANITIZE_ADDRESS__)
#define ACCRED_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ACCRED_ASAN_FIBERS 1
#endif
#endif

namespace accred::gpusim {

namespace detail {
/// Saved state of a suspended context: the stack pointer for the x86_64
/// switch, a full ucontext_t for the fallback.
#if defined(ACCRED_FIBER_ASM)
using MachineContext = void*;
#else
using MachineContext = ucontext_t;
#endif
}  // namespace detail

class FastChain;

/// A reusable fiber stack. Stacks are the expensive part of a fiber, so the
/// block scheduler keeps a pool of them (FiberStackPool, pool.hpp) and lends
/// them to lanes through FastChain.
class Fiber {
public:
  /// Allocation-free entry point: `fn(arg)` runs on the fiber's stack.
  /// Re-arming stores two pointers instead of constructing a closure.
  using RawEntry = void (*)(void*);

  /// `stack_size` must be a multiple of 16; 64 KiB is ample for the device
  /// kernels in this project (no deep recursion on the device side).
  explicit Fiber(std::size_t stack_size = 64 * 1024);
  /// Run on an externally owned stack (a FiberStackPool slab slot). The
  /// memory must be 16-byte aligned and outlive the fiber.
  Fiber(std::byte* stack, std::size_t stack_size);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  Fiber(Fiber&&) = delete;
  Fiber& operator=(Fiber&&) = delete;

  /// Arm the fiber with a new entry point: `entry(arg)` runs on its stack.
  /// Must not be running. No allocation, no closure construction.
  void reset(RawEntry entry, void* arg);

  /// Switch from the calling context into the fiber. Returns when the fiber
  /// calls yield() or its entry function returns. If the entry function
  /// exited with an exception, it is rethrown here in the resumer's context.
  void resume();

  /// Called from inside a fiber: suspend and return control to resume()'s
  /// caller. Undefined behaviour if called outside any fiber.
  static void yield();

  /// True once the entry function has returned. resume() must not be called
  /// again until reset(). A FastChain pool fiber is also done() while it
  /// idles on the free list: its stack then holds no lane's frames.
  [[nodiscard]] bool done() const noexcept { return done_; }

  /// Abandon a suspended fiber after a fatal simulation error: marks it
  /// done so the stack can be reused/destroyed. Frame-local objects on the
  /// abandoned stack are NOT destroyed — only call this on device fibers,
  /// whose locals are trivial by construction.
  void abandon() noexcept { done_ = true; }

  /// The fiber currently executing on this OS thread, or nullptr.
  static Fiber* current() noexcept;

  /// Capture the in-flight exception for later rethrow in the scheduler's
  /// context. Non-std exceptions (`throw 42;`) are wrapped in a structured
  /// LaunchError so top-level handlers always have a what() to print. Only
  /// callable from inside a catch block.
  [[nodiscard]] static std::exception_ptr capture_current_exception();

private:
  friend class FastChain;

  static void trampoline();
  void prepare_stack();  ///< backend-specific initial frame -> trampoline()

  std::size_t stack_size_;
  std::byte* stack_base_ = nullptr;        // start of the usable stack
  std::unique_ptr<std::byte[]> owned_;     // set only for self-owned stacks
  RawEntry raw_entry_ = nullptr;
  void* raw_arg_ = nullptr;
  std::exception_ptr eptr_;
  bool done_ = true;  // no entry armed yet

  detail::MachineContext self_ctx_{};    // fiber's context while suspended
  detail::MachineContext caller_ctx_{};  // resumer's context while running

#if defined(ACCRED_TSAN_FIBERS)
  void* tsan_fiber_ = nullptr;   // TSan-side context for this fiber
  void* tsan_caller_ = nullptr;  // resumer's TSan context while running
#endif
#if defined(ACCRED_ASAN_FIBERS)
  void* asan_fake_ = nullptr;         // this fiber's fake stack, switched out
  void* asan_caller_fake_ = nullptr;  // resumer's fake stack while running
  const void* asan_caller_bottom_ = nullptr;  // resumer's stack, for yield
  std::size_t asan_caller_size_ = 0;
#endif
};

/// Converged-warp pass driver with lazy fiber binding. The scheduler calls
/// run() once per pass over an ordered list of lane ids; each lane runs,
/// in list order, until it finishes or suspends (park()), and the last
/// lane returns control to the scheduler frame.
///
///   * A lane takes a fiber from a LIFO free list of the caller's pooled
///     fibers only when a pass first enters it.
///   * When a lane finishes and the next lane of the pass has not started,
///     the same fiber runs that lane in a loop, with no context switch.
///   * A lane that parks keeps its fiber until it finishes; a later pass
///     switches straight back into it.
///   * A fiber returns to the free list only when its lane finishes and the
///     next lane is parked, or when the pass ends.
///
/// A lane exception stops the pass before any later lane runs, and run()
/// rethrows it. The caller must then reset() the chain, which abandons
/// every unfinished lane and refills the free list. The free list cannot
/// run dry as long as the pool holds a fiber per lane: each started,
/// unfinished lane holds one. Pool fibers belong to the chain and must not
/// be resume()d: park() does not maintain the caller-frame bookkeeping
/// yield() relies on.
class FastChain {
public:
  /// Lane entry: runs lane `lane` to completion on whatever fiber the
  /// chain lends it. May suspend through park() and may throw; the chain
  /// catches at this boundary.
  using LaneBody = void (*)(void* arg, std::uint32_t lane);

  FastChain(LaneBody body, void* arg) noexcept : body_(body), arg_(arg) {}
  FastChain(const FastChain&) = delete;
  FastChain& operator=(const FastChain&) = delete;

  /// Take every fiber of `pool` back onto the free list with a fresh
  /// frame, abandoning any lane it still holds, and mark lanes
  /// [0, pool.size()) as not started. Call after (re)building the pool and
  /// after run() threw.
  void reset(std::span<const std::unique_ptr<Fiber>> pool);

  /// Run every lane of `order` (lane ids below the pool size) once to its
  /// next suspension point or to completion. Returns when the pass is
  /// complete; rethrows the first lane exception. `count` must be >= 1.
  void run(const std::uint32_t* order, std::uint32_t count);

  /// Lane side: suspend the running lane mid-kernel (it keeps its fiber)
  /// and continue the pass. Returns when a later pass re-enters the lane.
  void park();

private:
  /// Entry of every pooled fiber: runs lane after lane of the pass until
  /// one suspends or fails, the next lane already holds a fiber, or the
  /// pass ends.
  [[noreturn]] static void lane_loop(void* chain);
  /// Transfer control out of `self` into the next lane of the pass, or
  /// back to the scheduler frame when the list is exhausted.
  void enter_next(Fiber* self);
  /// Pop the most recently freed fiber and bind it to `lane`, which it
  /// starts when entered.
  Fiber* take_fiber(std::uint32_t lane);

  LaneBody body_;
  void* arg_;
  /// Per lane id: the fiber a started, unfinished lane holds; null before
  /// the lane starts and after it finishes.
  std::vector<Fiber*> lane_fiber_;
  std::vector<Fiber*> free_;  ///< idle pooled fibers, most recent last
  const std::uint32_t* order_ = nullptr;
  std::uint32_t count_ = 0;
  std::uint32_t next_ = 0;    ///< next order_ index to enter
  std::uint32_t lane_ = 0;    ///< lane that lane_loop() starts next
  Fiber* current_ = nullptr;  ///< fiber holding control
  std::exception_ptr eptr_;   ///< the failing lane's exception, for run()
  detail::MachineContext sched_ctx_{};  ///< scheduler frame during a pass
#if defined(ACCRED_TSAN_FIBERS)
  void* tsan_sched_ = nullptr;
#endif
#if defined(ACCRED_ASAN_FIBERS)
  void* asan_sched_fake_ = nullptr;  ///< scheduler's fake stack in a pass
  /// The scheduler frame's stack, learned by the first fiber run() enters
  /// (asan_sched_pending_ until then).
  const void* asan_sched_bottom_ = nullptr;
  std::size_t asan_sched_size_ = 0;
  bool asan_sched_pending_ = false;
  /// Fiber side of every switch in, given the stack it came from: when
  /// run() just left the scheduler frame, remember that frame's stack.
  void asan_arrived(const void* from_bottom, std::size_t from_size) noexcept;
#endif
};

}  // namespace accred::gpusim
