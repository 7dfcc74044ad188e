// The device-side programming surface: every simulated GPU thread executes
// kernel code against a ThreadCtx, which provides CUDA's built-in variables
// (threadIdx / blockIdx / blockDim / gridDim), barriers, and cost-modeled,
// bounds-checked global/shared memory access.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "gpusim/cost_model.hpp"
#include "gpusim/device.hpp"
#include "gpusim/dim3.hpp"
#include "gpusim/faultinject.hpp"
#include "gpusim/fiber.hpp"
#include "gpusim/racecheck.hpp"
#include "gpusim/shared_memory.hpp"

namespace accred::gpusim {

/// Why a device fiber suspended (or stopped).
enum class ThreadPhase : std::uint8_t {
  kReady,       ///< runnable
  kAtSyncwarp,  ///< waiting at ctx.syncwarp()
  kAtBarrier,   ///< waiting at ctx.syncthreads()
  kDone,        ///< kernel function returned
};

/// Everything shared by the threads of the block currently being simulated.
/// Owned by the scheduler; referenced by ThreadCtx.
struct BlockState {
  std::vector<std::byte> shared;        ///< shared-memory slab
  std::vector<WarpLog> warp_logs;       ///< one per warp
  std::vector<ThreadPhase> phase;       ///< one per thread (linear tid)
  /// Per warp: tids parked at syncwarp since the warp's last rendezvous
  /// release, in arrival order. Lets the scheduler release exactly the
  /// arrived lanes in O(lanes resumed) instead of rescanning all 32 phases
  /// every pass.
  std::vector<std::vector<std::uint32_t>> warp_pending;
  std::vector<std::uint32_t> barrier_seq;  ///< syncthreads count per thread
  /// Stage table of the block being simulated, or null when profiling is
  /// off (obs/profiler.hpp). Armed by the scheduler before the first fiber
  /// runs; ThreadCtx::prof_scope interns stage names here.
  obs::StageTable* profile = nullptr;
  /// Current stage id per thread (linear tid); only maintained while
  /// profiling. The scheduler reads it to attribute barrier waves.
  std::vector<std::uint16_t> thread_stage;
  /// Race detector of the block being simulated, or null when racecheck is
  /// off (racecheck.hpp). Armed by the scheduler (which also arms the stage
  /// table so reports carry stage names); ThreadCtx's ld/st/lds/sts hooks
  /// feed it every data-carrying memory access.
  RaceChecker* racecheck = nullptr;
  /// Fault injector of the block being simulated, or null when no fault
  /// plan is armed (faultinject.hpp). Fed by the same ld/st/lds/sts hooks
  /// plus the barrier entries; like racecheck, the off path costs one
  /// null-pointer branch per event.
  BlockFaults* faults = nullptr;
  /// Pass driver of the block being simulated (DESIGN.md §12). Armed by
  /// the scheduler before any lane runs; the barrier suspend sites park
  /// through it so a suspending lane switches straight into the next lane
  /// of the pass.
  FastChain* chain = nullptr;
  std::uint64_t barriers = 0;           ///< syncthreads executed by the block
  std::uint64_t syncwarps = 0;
  bool barrier_exit_divergence = false; ///< a thread exited while others
                                        ///< waited at syncthreads (CUDA UB)
  bool barrier_site_mismatch = false;   ///< threads met at *different*
                                        ///< syncthreads call sites (CUDA UB)
  bool strict_barriers = false;         ///< throw on the above instead
};

class ThreadCtx {
public:
  ThreadCtx(BlockState& block, Dim3 thread_idx, Dim3 block_idx, Dim3 block_dim,
            Dim3 grid_dim) noexcept
      : threadIdx(thread_idx),
        blockIdx(block_idx),
        blockDim(block_dim),
        gridDim(grid_dim),
        block_(&block) {
    tid_ = threadIdx.x + threadIdx.y * blockDim.x +
           threadIdx.z * blockDim.x * blockDim.y;
    lane_ = tid_ % 32;
    log_ = &block_->warp_logs[tid_ / 32];
  }

  // CUDA built-ins (same names on purpose).
  Dim3 threadIdx, blockIdx, blockDim, gridDim;  // NOLINT(readability-*)

  [[nodiscard]] std::uint32_t linear_tid() const noexcept { return tid_; }
  [[nodiscard]] std::uint32_t warp() const noexcept { return tid_ / 32; }
  [[nodiscard]] std::uint32_t lane() const noexcept { return lane_; }

  /// Block-wide barrier (__syncthreads).
  void syncthreads() {
    if (block_->faults != nullptr) {
      block_->faults->on_instr(tid_, cur_stage(), block_->barrier_seq[tid_]);
      // An injected skip_barrier makes this thread sail past its nth
      // syncthreads — the call neither parks the fiber nor bumps its
      // barrier ordinal, exactly as if the source line were deleted.
      if (block_->faults->skip_barrier(tid_, cur_stage(),
                                       block_->barrier_seq[tid_])) {
        return;
      }
    }
    block_->phase[tid_] = ThreadPhase::kAtBarrier;
    block_->barrier_seq[tid_] += 1;
    suspend();
  }

  /// Warp-wide barrier (__syncwarp). Free on Kepler (SIMD-synchronous
  /// warps); required in the simulator wherever real code relies on warp
  /// lockstep, e.g. the unrolled last-warp tree steps of §3.1.1.
  void syncwarp() {
    if (block_->faults != nullptr) {
      block_->faults->on_instr(tid_, cur_stage(), block_->barrier_seq[tid_]);
    }
    block_->phase[tid_] = ThreadPhase::kAtSyncwarp;
    block_->warp_pending[warp()].push_back(tid_);
    suspend();
  }

  /// Charge `units` of arithmetic work to this lane (index math, compare,
  /// FMA-disabled multiply-add, ... — unit ≈ one scalar instruction).
  void alu(double units) noexcept { log_->alu(lane_, units); }

  // ---- Profiling scopes ------------------------------------------------

  /// RAII handle restoring the thread's previous profiling stage on
  /// destruction. Movable; default-constructed (and moved-from) handles
  /// are inert, which is also what prof_scope returns when profiling is
  /// off — kernels annotate unconditionally and pay nothing.
  class ProfScope {
  public:
    ProfScope() = default;
    ProfScope(ProfScope&& o) noexcept : ctx_(o.ctx_), prev_(o.prev_) {
      o.ctx_ = nullptr;
    }
    ProfScope& operator=(ProfScope&& o) noexcept {
      if (this != &o) {
        release();
        ctx_ = o.ctx_;
        prev_ = o.prev_;
        o.ctx_ = nullptr;
      }
      return *this;
    }
    ProfScope(const ProfScope&) = delete;
    ProfScope& operator=(const ProfScope&) = delete;
    ~ProfScope() { release(); }

  private:
    friend class ThreadCtx;
    ProfScope(ThreadCtx* ctx, std::uint16_t prev) noexcept
        : ctx_(ctx), prev_(prev) {}
    void release() noexcept {
      if (ctx_ != nullptr) ctx_->set_prof_stage(prev_);
      ctx_ = nullptr;
    }
    ThreadCtx* ctx_ = nullptr;
    std::uint16_t prev_ = 0;
  };

  /// Enter the named profiling stage: until the returned scope dies, every
  /// event this thread logs (memory groups it opens, ALU charges, barriers
  /// it leads) books into `name`'s row. Scopes nest — destruction restores
  /// the enclosing stage.
  [[nodiscard]] ProfScope prof_scope(std::string_view name) {
    if (block_->profile == nullptr) return {};
    const std::uint16_t prev = block_->thread_stage[tid_];
    set_prof_stage(block_->profile->intern(name));
    return {this, prev};
  }

  /// Set this thread's current stage id directly (prof_scope's engine).
  /// No-op when profiling is off.
  void set_prof_stage(std::uint16_t stage) noexcept {
    if (block_->profile == nullptr) return;
    block_->thread_stage[tid_] = stage;
    log_->set_lane_stage(lane_, stage);
  }

  /// Charge a global-memory access at a virtual address without touching
  /// any buffer — used to model traffic whose data content is irrelevant
  /// (e.g. a compiler spilling an accumulator to local memory). Not fed to
  /// racecheck: no data flows through these addresses, so no ordering can
  /// be violated.
  void touch_global(std::uint64_t vaddr, std::uint32_t bytes) {
    log_->global_access_alu1(lane_, vaddr, bytes);
  }

  // ---- Global memory --------------------------------------------------

  template <typename T>
  [[nodiscard]] T ld(const GlobalView<T>& v, std::size_t i) {
    check_global(v, i, "global load");
    log_->global_access_alu1(lane_, v.addr_of(i), sizeof(T));
    if (block_->racecheck != nullptr) {
      block_->racecheck->global_access(tid_, v.addr_of(i), sizeof(T),
                                       /*write=*/false, cur_stage());
    }
    if (block_->faults != nullptr) {
      block_->faults->on_instr(tid_, cur_stage(), block_->barrier_seq[tid_]);
    }
    return v.data[i];
  }

  template <typename T>
  void st(const GlobalView<T>& v, std::size_t i, const T& x) {
    check_global(v, i, "global store");
    log_->global_access_alu1(lane_, v.addr_of(i), sizeof(T));
    if (block_->racecheck != nullptr) {
      block_->racecheck->global_access(tid_, v.addr_of(i), sizeof(T),
                                       /*write=*/true, cur_stage());
    }
    if (block_->faults != nullptr) {
      block_->faults->on_instr(tid_, cur_stage(), block_->barrier_seq[tid_]);
    }
    v.data[i] = x;
    if (block_->faults != nullptr) {
      block_->faults->on_store(tid_, cur_stage(),
                               reinterpret_cast<std::byte*>(&v.data[i]),
                               sizeof(T), /*shared_space=*/false,
                               v.addr_of(i));
    }
  }

  // ---- Shared memory ---------------------------------------------------

  template <typename T>
  [[nodiscard]] T lds(const SharedView<T>& v, std::size_t i) {
    T out;
    const std::uint32_t off = check_shared(v, i, "shared load");
    log_->shared_access_alu1(lane_, off, sizeof(T));
    if (block_->racecheck != nullptr) {
      block_->racecheck->shared_access(tid_, off, sizeof(T), /*write=*/false,
                                       cur_stage());
    }
    if (block_->faults != nullptr) {
      block_->faults->on_instr(tid_, cur_stage(), block_->barrier_seq[tid_]);
    }
    std::memcpy(&out, block_->shared.data() + off, sizeof(T));
    return out;
  }

  template <typename T>
  void sts(const SharedView<T>& v, std::size_t i, const T& x) {
    const std::uint32_t off = check_shared(v, i, "shared store");
    log_->shared_access_alu1(lane_, off, sizeof(T));
    if (block_->racecheck != nullptr) {
      block_->racecheck->shared_access(tid_, off, sizeof(T), /*write=*/true,
                                       cur_stage());
    }
    if (block_->faults != nullptr) {
      block_->faults->on_instr(tid_, cur_stage(), block_->barrier_seq[tid_]);
    }
    std::memcpy(block_->shared.data() + off, &x, sizeof(T));
    if (block_->faults != nullptr) {
      block_->faults->on_store(tid_, cur_stage(),
                               block_->shared.data() + off, sizeof(T),
                               /*shared_space=*/true, off);
    }
  }

private:
  /// Park this lane until the scheduler's next pass re-enters it: one
  /// switch, straight into the next lane of the pass.
  void suspend() { block_->chain->park(); }

  /// Stage id reports attribute this thread's accesses to. thread_stage is
  /// maintained whenever the stage table is armed — which the scheduler
  /// guarantees while racecheck is on.
  [[nodiscard]] std::uint16_t cur_stage() const noexcept {
    return block_->profile != nullptr ? block_->thread_stage[tid_] : 0;
  }

  /// Cold throw paths, outlined so the bounds checks inlined into every
  /// ld/st/lds/sts compile to a compare and a never-taken branch.
  [[noreturn, gnu::noinline, gnu::cold]] static void throw_oob(
      const char* what, const char* where, std::size_t i, std::size_t size) {
    throw std::out_of_range(std::string(what) + " out of bounds: index " +
                            std::to_string(i) + " in " + where + " of " +
                            std::to_string(size) + " elements");
  }
  [[noreturn, gnu::noinline, gnu::cold]] static void throw_slab_end(
      const char* what) {
    throw std::out_of_range(std::string(what) +
                            " past end of shared memory slab");
  }

  template <typename T>
  void check_global(const GlobalView<T>& v, std::size_t i, const char* what) {
    if (i >= v.size) [[unlikely]] throw_oob(what, "buffer", i, v.size);
  }

  template <typename T>
  std::uint32_t check_shared(const SharedView<T>& v, std::size_t i,
                             const char* what) {
    if (i >= v.count) [[unlikely]] {
      throw_oob(what, "shared view", i, v.count);
    }
    const std::uint32_t off = v.byte_offset_of(i);
    if (off + sizeof(T) > block_->shared.size()) [[unlikely]] {
      throw_slab_end(what);
    }
    return off;
  }

  BlockState* block_;
  WarpLog* log_;
  std::uint32_t tid_;
  std::uint32_t lane_;  ///< tid_ % 32, cached for the per-event hot paths
};

}  // namespace accred::gpusim
