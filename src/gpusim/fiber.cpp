#include "gpusim/fiber.hpp"

#include <cassert>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "gpusim/error.hpp"

#if defined(ACCRED_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif

namespace accred::gpusim {

namespace {
thread_local Fiber* tls_current = nullptr;
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

Fiber* Fiber::current() noexcept { return tls_current; }

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
void validate_stack_size(std::size_t n) {
  if (n % 16 != 0 || n < 4096) {
    throw std::invalid_argument(
        "fiber stack size must be >=4096 and 16-aligned");
  }
}
}  // namespace

Fiber::Fiber(std::size_t stack_size) : stack_size_(stack_size) {
  validate_stack_size(stack_size_);
  owned_ = std::make_unique<std::byte[]>(stack_size_);
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
  // would hold live frames. The scheduler guarantees fibers run to completion.
  assert(done_);
#if defined(ACCRED_TSAN_FIBERS)
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
}

void Fiber::trampoline() {
  Fiber* self = tls_current;
  // Exceptions cannot unwind through the hand-rolled switch frame (no CFI),
  // so capture them and rethrow on the resumer's side. The scheduler's
  // lane entry catches at the kernel boundary itself and leave()s without
  // returning here, so this handler only serves the resume()/yield()
  // protocol.
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
    accred_ctx_switch(&self->self_sp_, self->caller_sp_);
  }
}

void Fiber::prepare_stack() {
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
  self_sp_ = frame;
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
  accred_ctx_switch(&caller_sp_, self_sp_);
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
  accred_ctx_switch(&self->self_sp_, self->caller_sp_);
}

void FastChain::run(Fiber* const* fibers, const std::uint32_t* order,
                    std::uint32_t count) {
  assert(count >= 1);
  fibers_ = fibers;
  order_ = order;
  count_ = count;
  next_ = 1;
  Fiber* first = fibers[order[0]];
  assert(!first->done());
  current_ = first;
  Fiber* prev = tls_current;
  tls_current = first;
#if defined(ACCRED_TSAN_FIBERS)
  tsan_sched_ = __tsan_get_current_fiber();
  ACCRED_TSAN_TO(first->tsan_fiber_);
#endif
  accred_ctx_switch(&sched_sp_, first->self_sp_);
  tls_current = prev;
  Fiber* last = current_;
  if (last->eptr_) {
    std::exception_ptr e = std::exchange(last->eptr_, nullptr);
    std::rethrow_exception(e);
  }
}

void FastChain::dispatch_from(Fiber* self, bool to_sched) {
  if (!to_sched) {
    const std::uint32_t i = next_++;
    if (i < count_) {
      Fiber* to = fibers_[order_[i]];
      current_ = to;
      tls_current = to;
      ACCRED_TSAN_TO(to->tsan_fiber_);
      accred_ctx_switch(&self->self_sp_, to->self_sp_);
      return;  // a later pass re-entered `self`
    }
  }
  ACCRED_TSAN_TO(tsan_sched_);
  accred_ctx_switch(&self->self_sp_, sched_sp_);
  // A later pass re-entered `self` (parked lanes only; finished lanes are
  // never switched back into).
}

void FastChain::park() { dispatch_from(current_, /*to_sched=*/false); }

void FastChain::leave() {
  Fiber* self = current_;
  self->done_ = true;
  // A faulting lane aborts the pass before any later lane runs.
  dispatch_from(self, /*to_sched=*/self->eptr_ != nullptr);
}

#else  // ucontext fallback

namespace {
void validate_stack_size(std::size_t n) {
  if (n % 16 != 0 || n < 4096) {
    throw std::invalid_argument(
        "fiber stack size must be >=4096 and 16-aligned");
  }
}
}  // namespace

Fiber::Fiber(std::size_t stack_size) : stack_size_(stack_size) {
  validate_stack_size(stack_size_);
  owned_ = std::make_unique<std::byte[]>(stack_size_);
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
  assert(done_);
#if defined(ACCRED_TSAN_FIBERS)
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
}

void Fiber::trampoline() {
  Fiber* self = tls_current;
  try {
    self->raw_entry_(self->raw_arg_);
  } catch (...) {
    self->eptr_ = capture_current_exception();
  }
  self->done_ = true;
  // See the asm variant: never abort the process on a stray re-resume.
  for (;;) {
    ACCRED_TSAN_OUT(self);
    swapcontext(&self->self_ctx_, &self->caller_ctx_);
  }
}

void Fiber::prepare_stack() {
  getcontext(&self_ctx_);
  self_ctx_.uc_stack.ss_sp = stack_base_;
  self_ctx_.uc_stack.ss_size = stack_size_;
  self_ctx_.uc_link = nullptr;
  makecontext(&self_ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 0);
}

void Fiber::reset(RawEntry entry, void* arg) {
  assert(done_);
  raw_entry_ = entry;
  raw_arg_ = arg;
  eptr_ = nullptr;
  done_ = false;
  prepare_stack();
}

void Fiber::resume() {
  assert(!done_);
  Fiber* prev = tls_current;
  tls_current = this;
  ACCRED_TSAN_IN(this);
  swapcontext(&caller_ctx_, &self_ctx_);
  tls_current = prev;
  if (done_ && eptr_) {
    std::exception_ptr e = std::exchange(eptr_, nullptr);
    std::rethrow_exception(e);
  }
}

void Fiber::yield() {
  Fiber* self = tls_current;
  assert(self != nullptr);
  ACCRED_TSAN_OUT(self);
  swapcontext(&self->self_ctx_, &self->caller_ctx_);
}

void FastChain::run(Fiber* const* fibers, const std::uint32_t* order,
                    std::uint32_t count) {
  assert(count >= 1);
  fibers_ = fibers;
  order_ = order;
  count_ = count;
  next_ = 1;
  Fiber* first = fibers[order[0]];
  assert(!first->done());
  current_ = first;
  Fiber* prev = tls_current;
  tls_current = first;
#if defined(ACCRED_TSAN_FIBERS)
  tsan_sched_ = __tsan_get_current_fiber();
  ACCRED_TSAN_TO(first->tsan_fiber_);
#endif
  swapcontext(&sched_ctx_, &first->self_ctx_);
  tls_current = prev;
  Fiber* last = current_;
  if (last->eptr_) {
    std::exception_ptr e = std::exchange(last->eptr_, nullptr);
    std::rethrow_exception(e);
  }
}

void FastChain::dispatch_from(Fiber* self, bool to_sched) {
  if (!to_sched) {
    const std::uint32_t i = next_++;
    if (i < count_) {
      Fiber* to = fibers_[order_[i]];
      current_ = to;
      tls_current = to;
      ACCRED_TSAN_TO(to->tsan_fiber_);
      swapcontext(&self->self_ctx_, &to->self_ctx_);
      return;  // a later pass re-entered `self`
    }
  }
  ACCRED_TSAN_TO(tsan_sched_);
  swapcontext(&self->self_ctx_, &sched_ctx_);
}

void FastChain::park() { dispatch_from(current_, /*to_sched=*/false); }

void FastChain::leave() {
  Fiber* self = current_;
  self->done_ = true;
  dispatch_from(self, /*to_sched=*/self->eptr_ != nullptr);
}

#endif

}  // namespace accred::gpusim
