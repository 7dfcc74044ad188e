#include "gpusim/fiber.hpp"

#include <cassert>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "gpusim/error.hpp"

#if defined(ACCRED_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif
#if defined(ACCRED_ASAN_FIBERS)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace accred::gpusim {

namespace {

thread_local Fiber* tls_current = nullptr;

void validate_stack_size(std::size_t n) {
  if (n % 16 != 0 || n < 4096) {
    throw std::invalid_argument(
        "fiber stack size must be >=4096 and 16-aligned");
  }
}

}  // namespace

std::exception_ptr Fiber::capture_current_exception() {
  try {
    throw;  // rethrow the in-flight exception to classify it
  } catch (const std::exception&) {
    return std::current_exception();
  } catch (...) {
    LaunchErrorInfo info;
    info.code = LaunchErrorCode::kDeviceFault;
    info.message = "non-standard exception escaped a device fiber";
    return std::make_exception_ptr(LaunchError(std::move(info)));
  }
}

// TSan must be told about every transfer of control between stacks: the
// resumer's context is captured right before switching in (ACCRED_TSAN_IN)
// and the fiber announces the switch back right before yielding or
// finishing (ACCRED_TSAN_OUT). FastChain's lane-to-lane transfers
// announce the target directly (ACCRED_TSAN_TO). No-ops in regular builds.
#if defined(ACCRED_TSAN_FIBERS)
#define ACCRED_TSAN_IN(fib)                                \
  do {                                                     \
    (fib)->tsan_caller_ = __tsan_get_current_fiber();      \
    __tsan_switch_to_fiber((fib)->tsan_fiber_, 0);         \
  } while (false)
#define ACCRED_TSAN_OUT(fib) __tsan_switch_to_fiber((fib)->tsan_caller_, 0)
#define ACCRED_TSAN_TO(ctx) __tsan_switch_to_fiber((ctx), 0)
#else
#define ACCRED_TSAN_IN(fib) (void)0
#define ACCRED_TSAN_OUT(fib) (void)0
#define ACCRED_TSAN_TO(ctx) (void)0
#endif

// ASan likewise: the side leaving a stack announces the target stack right
// before the switch (ACCRED_ASAN_LEAVE; a null save slot means the leaving
// context never runs again), and the side arriving confirms right after it
// (ACCRED_ASAN_ARRIVE), learning the stack it came from. No-ops in regular
// builds.
#if defined(ACCRED_ASAN_FIBERS)
#define ACCRED_ASAN_LEAVE(save, bottom, size) \
  __sanitizer_start_switch_fiber((save), (bottom), (size))
#define ACCRED_ASAN_ARRIVE(fake, bottom_old, size_old) \
  __sanitizer_finish_switch_fiber((fake), (bottom_old), (size_old))
#else
#define ACCRED_ASAN_LEAVE(save, bottom, size) (void)0
#define ACCRED_ASAN_ARRIVE(fake, bottom_old, size_old) (void)0
#endif

Fiber* Fiber::current() noexcept { return tls_current; }

// ---- Backend: the register switch and the initial frame ------------------

#if defined(ACCRED_FIBER_ASM)

// void accred_ctx_switch(void** save_sp, void* restore_sp)
//
// Saves the System-V callee-saved general-purpose registers plus the return
// address on the current stack, stores the resulting stack pointer through
// `save_sp`, installs `restore_sp`, and unwinds the same frame layout.
// XMM registers are caller-saved in the SysV ABI, so an ordinary extern "C"
// call boundary is sufficient.
extern "C" void accred_ctx_switch(void** save_sp, void* restore_sp);
asm(R"(
.text
.globl accred_ctx_switch
.type accred_ctx_switch, @function
.align 16
accred_ctx_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    movq  %rsp, (%rdi)
    movq  %rsi, %rsp
    popq  %r15
    popq  %r14
    popq  %r13
    popq  %r12
    popq  %rbx
    popq  %rbp
    ret
.size accred_ctx_switch, .-accred_ctx_switch
)");

namespace {
/// Save the running context into `save` and continue in `restore`.
inline void switch_context(detail::MachineContext& save,
                           const detail::MachineContext& restore) {
  accred_ctx_switch(&save, restore);
}
}  // namespace

void Fiber::prepare_stack() {
#if defined(ACCRED_ASAN_FIBERS)
  // An abandoned lane's frames may still be poisoned; the fresh frame
  // below (and everything the next lane runs) must not trip over them.
  __asan_unpoison_memory_region(stack_base_, stack_size_);
#endif
  // Build an initial stack frame such that accred_ctx_switch's epilogue
  // (six pops + ret) lands in trampoline() with a 16-byte-misaligned rsp,
  // matching the ABI state at a normal function entry.
  std::byte* top = stack_base_ + stack_size_;
  auto sp = reinterpret_cast<std::uintptr_t>(top);
  sp &= ~static_cast<std::uintptr_t>(0xf);  // align down to 16
  // Layout (low -> high): r15 r14 r13 r12 rbx rbp retaddr.
  // After the 6 pops, rsp points at retaddr; after ret, rsp = sp, which is
  // 16-aligned minus the 7*8 we reserve => choose slots so entry alignment
  // is correct: at trampoline entry rsp % 16 must equal 8 ... the `ret`
  // consumed the retaddr slot, leaving rsp at (frame_base + 7*8). Reserve
  // an extra 8 bytes so that value is ≡ 8 (mod 16).
  sp -= 8;
  auto* frame = reinterpret_cast<void**>(sp) - 7;
  for (int i = 0; i < 6; ++i) frame[i] = nullptr;  // r15..rbp
  frame[6] = reinterpret_cast<void*>(&Fiber::trampoline);
  self_ctx_ = frame;
}

#else  // ucontext fallback

namespace {
inline void switch_context(detail::MachineContext& save,
                           const detail::MachineContext& restore) {
  swapcontext(&save, &restore);
}
}  // namespace

void Fiber::prepare_stack() {
#if defined(ACCRED_ASAN_FIBERS)
  __asan_unpoison_memory_region(stack_base_, stack_size_);
#endif
  getcontext(&self_ctx_);
  self_ctx_.uc_stack.ss_sp = stack_base_;
  self_ctx_.uc_stack.ss_size = stack_size_;
  self_ctx_.uc_link = nullptr;
  makecontext(&self_ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 0);
}

#endif

// ---- Fiber: the resume()/yield() protocol --------------------------------

Fiber::Fiber(std::size_t stack_size) : stack_size_(stack_size) {
  validate_stack_size(stack_size_);
  // Not zero-filled: prepare_stack() writes the only bytes read before the
  // fiber writes them itself.
  owned_ = std::make_unique_for_overwrite<std::byte[]>(stack_size_);
  stack_base_ = owned_.get();
#if defined(ACCRED_TSAN_FIBERS)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::Fiber(std::byte* stack, std::size_t stack_size)
    : stack_size_(stack_size), stack_base_(stack) {
  validate_stack_size(stack_size_);
#if defined(ACCRED_TSAN_FIBERS)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  // A fiber must never be destroyed while suspended mid-execution: its stack
  // would hold live frames. Its owner finishes or abandon()s it first.
  assert(done_);
#if defined(ACCRED_TSAN_FIBERS)
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
}

void Fiber::trampoline() {
  Fiber* self = tls_current;
  ACCRED_ASAN_ARRIVE(nullptr, &self->asan_caller_bottom_,
                     &self->asan_caller_size_);
  // Exceptions cannot unwind through a stack switch, so capture them and
  // rethrow on the resumer's side. FastChain's lane_loop() never returns
  // here, so this handler only serves the resume()/yield() protocol.
  try {
    self->raw_entry_(self->raw_arg_);
  } catch (...) {
    self->eptr_ = capture_current_exception();
  }
  self->done_ = true;
  // Final switch back to the resumer. A finished fiber must never be
  // resumed again (resume() asserts); if a release-build caller does it
  // anyway, keep handing control back instead of aborting the process.
  for (;;) {
    ACCRED_TSAN_OUT(self);
    ACCRED_ASAN_LEAVE(nullptr, self->asan_caller_bottom_,
                      self->asan_caller_size_);
    switch_context(self->self_ctx_, self->caller_ctx_);
    ACCRED_ASAN_ARRIVE(nullptr, &self->asan_caller_bottom_,
                       &self->asan_caller_size_);
  }
}

void Fiber::reset(RawEntry entry, void* arg) {
  assert(done_ && "cannot reset a running fiber");
  raw_entry_ = entry;
  raw_arg_ = arg;
  eptr_ = nullptr;
  done_ = false;
  prepare_stack();
}

void Fiber::resume() {
  assert(!done_ && "resume() on a finished fiber");
  Fiber* prev = tls_current;
  tls_current = this;
  ACCRED_TSAN_IN(this);
  ACCRED_ASAN_LEAVE(&asan_caller_fake_, stack_base_, stack_size_);
  switch_context(caller_ctx_, self_ctx_);
  ACCRED_ASAN_ARRIVE(asan_caller_fake_, nullptr, nullptr);
  tls_current = prev;
  if (done_ && eptr_) {
    std::exception_ptr e = std::exchange(eptr_, nullptr);
    std::rethrow_exception(e);
  }
}

void Fiber::yield() {
  Fiber* self = tls_current;
  assert(self != nullptr && "yield() outside any fiber");
  ACCRED_TSAN_OUT(self);
  ACCRED_ASAN_LEAVE(&self->asan_fake_, self->asan_caller_bottom_,
                    self->asan_caller_size_);
  switch_context(self->self_ctx_, self->caller_ctx_);
  ACCRED_ASAN_ARRIVE(self->asan_fake_, &self->asan_caller_bottom_,
                     &self->asan_caller_size_);
}

// ---- FastChain: lanes on lazily bound pooled fibers ----------------------

#if defined(ACCRED_ASAN_FIBERS)
void FastChain::asan_arrived(const void* from_bottom,
                             std::size_t from_size) noexcept {
  if (asan_sched_pending_) {
    asan_sched_bottom_ = from_bottom;
    asan_sched_size_ = from_size;
    asan_sched_pending_ = false;
  }
}
// A pool fiber resumed inside enter_next(): confirm the switch to ASan.
#define ACCRED_ASAN_CHAIN_ARRIVE(self)                                \
  do {                                                                \
    const void* from_bottom = nullptr;                                \
    std::size_t from_size = 0;                                        \
    ACCRED_ASAN_ARRIVE((self)->asan_fake_, &from_bottom, &from_size); \
    asan_arrived(from_bottom, from_size);                             \
  } while (false)
#else
#define ACCRED_ASAN_CHAIN_ARRIVE(self) (void)0
#endif

void FastChain::reset(std::span<const std::unique_ptr<Fiber>> pool) {
  free_.clear();
  // Pushed in reverse so the first lanes of a block take the first stacks.
  for (auto it = pool.rbegin(); it != pool.rend(); ++it) {
    Fiber& f = **it;
    // A fresh frame abandons whatever lane the fiber still held.
    f.raw_entry_ = &FastChain::lane_loop;
    f.raw_arg_ = this;
    f.prepare_stack();
    f.done_ = true;  // idle
    free_.push_back(&f);
  }
  lane_fiber_.assign(pool.size(), nullptr);
}

Fiber* FastChain::take_fiber(std::uint32_t lane) {
  assert(!free_.empty() && "pool holds fewer fibers than started lanes");
  // An idle fiber is either fresh from reset() or suspended in lane_loop()
  // right after giving up its last lane; entering it starts lane_ either way.
  Fiber* f = free_.back();
  free_.pop_back();
  f->done_ = false;
  lane_fiber_[lane] = f;
  lane_ = lane;
  return f;
}

void FastChain::run(const std::uint32_t* order, std::uint32_t count) {
  assert(count >= 1);
  order_ = order;
  count_ = count;
  next_ = 1;
  Fiber* first = lane_fiber_[order[0]];
  if (first == nullptr) first = take_fiber(order[0]);
  current_ = first;
  Fiber* prev = tls_current;
  tls_current = first;
#if defined(ACCRED_TSAN_FIBERS)
  tsan_sched_ = __tsan_get_current_fiber();
#endif
  ACCRED_TSAN_TO(first->tsan_fiber_);
#if defined(ACCRED_ASAN_FIBERS)
  asan_sched_pending_ = true;
#endif
  ACCRED_ASAN_LEAVE(&asan_sched_fake_, first->stack_base_, first->stack_size_);
  switch_context(sched_ctx_, first->self_ctx_);
  ACCRED_ASAN_ARRIVE(asan_sched_fake_, nullptr, nullptr);
  tls_current = prev;
  if (eptr_) std::rethrow_exception(std::exchange(eptr_, nullptr));
}

void FastChain::enter_next(Fiber* self) {
  if (next_ < count_) {
    const std::uint32_t lane = order_[next_++];
    Fiber* to = lane_fiber_[lane];
    if (to == nullptr) to = take_fiber(lane);
    current_ = to;
    tls_current = to;
    ACCRED_TSAN_TO(to->tsan_fiber_);
    ACCRED_ASAN_LEAVE(&self->asan_fake_, to->stack_base_, to->stack_size_);
    switch_context(self->self_ctx_, to->self_ctx_);
    ACCRED_ASAN_CHAIN_ARRIVE(self);
    return;  // `self` was entered again: its parked lane resumes, or it
             // was lent to start lane_
  }
  ACCRED_TSAN_TO(tsan_sched_);
  ACCRED_ASAN_LEAVE(&self->asan_fake_, asan_sched_bottom_, asan_sched_size_);
  switch_context(self->self_ctx_, sched_ctx_);
  ACCRED_ASAN_CHAIN_ARRIVE(self);
}

void FastChain::park() { enter_next(current_); }

void FastChain::lane_loop(void* chain) {
  FastChain& c = *static_cast<FastChain*>(chain);
#if defined(ACCRED_ASAN_FIBERS)
  // A fresh fiber arrives in trampoline(), which recorded where it came
  // from.
  c.asan_arrived(c.current_->asan_caller_bottom_,
                 c.current_->asan_caller_size_);
#endif
  for (;;) {
    const std::uint32_t lane = c.lane_;
    try {
      c.body_(c.arg_, lane);
    } catch (...) {
      c.eptr_ = Fiber::capture_current_exception();
    }
    // Stacks switch only after the handler has exited: libstdc++ keeps its
    // caught-exception stack per OS thread, not per fiber.
    Fiber* self = c.current_;
    if (c.eptr_) {
      // A failing lane stops the pass before any later lane runs. It keeps
      // its fiber, never to be entered again, until the caller's reset().
      c.next_ = c.count_;
    } else {
      c.lane_fiber_[lane] = nullptr;
      if (c.next_ < c.count_ && c.lane_fiber_[c.order_[c.next_]] == nullptr) {
        // The next lane has not started: run it right here.
        c.lane_ = c.order_[c.next_++];
        c.lane_fiber_[c.lane_] = self;
        continue;
      }
      self->done_ = true;
      c.free_.push_back(self);
    }
    // Returns only once take_fiber() lends this fiber to another lane.
    c.enter_next(self);
  }
}

}  // namespace accred::gpusim
