// Stackful fibers used to give every simulated GPU thread its own
// suspendable execution context, so device code can call `syncthreads()`
// anywhere (including inside nested loops) exactly as CUDA kernels do.
//
// On x86_64 a hand-rolled callee-saved-register context switch is used
// (a few ns per switch); other platforms fall back to POSIX ucontext.
//
// Two protocols drive a fiber (DESIGN.md §12):
//   * FastChain: how the block scheduler runs every lane — it enters a
//     ready list once and each suspending lane transfers control straight
//     into the next lane's fiber (one switch per suspension, no scheduler
//     frame in between), returning to the scheduler only when the whole
//     pass has parked, completed, or faulted;
//   * resume()/yield(): the plain pairwise protocol for a standalone fiber
//     (two switches per suspension), used by the fiber unit tests and the
//     switch-cost probes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>

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

namespace accred::gpusim {

class FastChain;

/// A reusable fiber stack. Stacks are the expensive part of a fiber, so the
/// block scheduler keeps a pool of them (FiberStackPool, pool.hpp) and
/// re-binds entry functions per simulated thread block.
class Fiber {
public:
  /// Allocation-free entry point: `fn(arg)` runs on the fiber's stack.
  /// The scheduler arms one of these per simulated thread per block —
  /// re-arming stores two pointers instead of constructing a closure.
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
  /// again until reset().
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
  /// Store the exception resume()/FastChain::run() will rethrow. Used by
  /// the scheduler's lane entry, which catches at the kernel boundary
  /// instead of relying on the trampoline's handler.
  void set_exception(std::exception_ptr e) noexcept { eptr_ = std::move(e); }

private:
  friend class FastChain;

  static void trampoline();
  void prepare_stack();

  std::size_t stack_size_;
  std::byte* stack_base_ = nullptr;        // start of the usable stack
  std::unique_ptr<std::byte[]> owned_;     // set only for self-owned stacks
  RawEntry raw_entry_ = nullptr;
  void* raw_arg_ = nullptr;
  std::exception_ptr eptr_;
  bool done_ = true;  // no entry armed yet

#if defined(ACCRED_FIBER_ASM)
  void* self_sp_ = nullptr;    // fiber's saved stack pointer while suspended
  void* caller_sp_ = nullptr;  // resumer's saved stack pointer while running
#else
  ucontext_t self_ctx_{};
  ucontext_t caller_ctx_{};
#endif

#if defined(ACCRED_TSAN_FIBERS)
  void* tsan_fiber_ = nullptr;   // TSan-side context for this fiber
  void* tsan_caller_ = nullptr;  // resumer's TSan context while running
#endif
};

/// Converged-warp pass driver: runs an ordered list of lane fibers with one
/// context switch per suspension instead of two. The scheduler calls run()
/// once per pass; each lane that suspends (park()) or finishes (leave())
/// transfers control directly into the next unstarted lane's fiber, and the
/// last lane — or the first faulting one — returns to the scheduler frame.
///
/// Lanes start in list order, a lane exception stops the pass before any
/// later lane runs (run() rethrows it, like Fiber::resume() would), and
/// fibers parked by park() are re-entered by a later run(). Lane entries
/// must end in leave(), never by returning into the trampoline, and a fiber
/// driven by run() passes must not be resume()d: park() does not maintain
/// the caller-frame bookkeeping yield() relies on.
class FastChain {
public:
  /// Run every lane of `order` (indices into `fibers`) once to its next
  /// suspension point. Returns when the pass is complete; rethrows the
  /// first lane exception. `count` must be >= 1.
  void run(Fiber* const* fibers, const std::uint32_t* order,
           std::uint32_t count);

  /// Lane side: suspend the running lane mid-kernel (it stays resumable)
  /// and continue the pass. Returns when a later pass re-enters the lane.
  void park();

  /// Lane side: the running lane is finished — normally or with its
  /// exception already stored via Fiber::set_exception(). Marks the fiber
  /// done, abandons its frame, and continues the pass; on a stored
  /// exception the pass aborts straight to the scheduler. Never returns
  /// into a frame that is resumed again.
  void leave();

private:
  /// Transfer control out of `self` into the next unstarted lane, or back
  /// to the scheduler frame when the list is exhausted (or `to_sched`).
  void dispatch_from(Fiber* self, bool to_sched);

  Fiber* const* fibers_ = nullptr;
  const std::uint32_t* order_ = nullptr;
  std::uint32_t count_ = 0;
  std::uint32_t next_ = 0;          ///< next order_ index to enter
  Fiber* current_ = nullptr;        ///< lane holding control (eptr lookup)
#if defined(ACCRED_FIBER_ASM)
  void* sched_sp_ = nullptr;        ///< scheduler frame while a pass runs
#else
  ucontext_t sched_ctx_{};
#endif
#if defined(ACCRED_TSAN_FIBERS)
  void* tsan_sched_ = nullptr;
#endif
};

}  // namespace accred::gpusim
