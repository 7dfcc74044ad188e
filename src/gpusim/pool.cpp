#include "gpusim/pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace accred::gpusim {

namespace {

std::atomic<std::uint32_t> g_default_override{0};

}  // namespace

void CancelFlag::cancel_from(std::uint32_t shard) noexcept {
  // Atomic minimum: the lowest faulting shard wins no matter the order in
  // which concurrent reporters land.
  std::uint32_t cur = first_.load(std::memory_order_relaxed);
  while (shard < cur && !first_.compare_exchange_weak(
                            cur, shard, std::memory_order_release,
                            std::memory_order_relaxed)) {
  }
}

bool CancelFlag::cancelled_for(std::uint32_t shard) const noexcept {
  return first_.load(std::memory_order_acquire) < shard;
}

std::uint32_t CancelFlag::first() const noexcept {
  return first_.load(std::memory_order_acquire);
}

void CancelToken::on_launch_begin() noexcept {
  // Decrement-if-positive: concurrent launches observing the same token
  // each consume one tick, and exactly one of them crosses 1 -> 0.
  std::uint32_t cur = countdown_.load(std::memory_order_relaxed);
  while (cur > 0 && !countdown_.compare_exchange_weak(
                        cur, cur - 1, std::memory_order_acq_rel,
                        std::memory_order_relaxed)) {
  }
  if (cur == 1) cancel();
}

std::uint32_t default_sim_threads() {
  const std::uint32_t forced = g_default_override.load(std::memory_order_relaxed);
  if (forced != 0) return forced;
  const std::uint32_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void set_default_sim_threads(std::uint32_t n) {
  g_default_override.store(std::min(n, kMaxSimThreads),
                           std::memory_order_relaxed);
}

bool FiberStackPool::ensure(std::size_t count, std::size_t stack_bytes) {
  if (count <= count_ && stack_bytes <= stack_bytes_) return false;
  // Grow-only, and never shrink the per-stack size: a scheduler simulating
  // alternating block shapes settles on the largest and stops reallocating.
  count = std::max(count, count_);
  stack_bytes = std::max(stack_bytes, stack_bytes_);
  // Not zero-filled: no code reads a stack byte it did not write (a fiber's
  // initial frame is built by Fiber::prepare_stack()). Value-initializing
  // would commit the whole slab up front — 64 MiB for one 1024-thread block
  // — where building the pool touches one page per stack and lanes that
  // never suspend share a single stack.
  slab_ = std::make_unique_for_overwrite<std::byte[]>(
      count * (stack_bytes + kStagger));
  count_ = count;
  stack_bytes_ = stack_bytes;
  return true;
}

std::uint32_t resolve_sim_threads(std::uint32_t requested,
                                  std::uint64_t blocks) {
  std::uint64_t t = requested != 0 ? requested : default_sim_threads();
  t = std::min<std::uint64_t>(t, blocks);
  t = std::min<std::uint64_t>(t, kMaxSimThreads);
  return t == 0 ? 1 : static_cast<std::uint32_t>(t);
}

/// One shard set in flight. Heap-allocated and shared with every worker
/// that observes it, so a worker scheduled late (after all shards are
/// claimed) still fetches from a live counter.
struct HostPool::Job {
  std::uint32_t nshards = 0;
  const std::function<void(std::uint32_t)>* fn = nullptr;
  std::atomic<std::uint32_t> next{0};       ///< next unclaimed shard
  std::atomic<std::uint32_t> remaining{0};  ///< shards not yet finished
};

struct HostPool::State {
  std::mutex mu;
  std::condition_variable work_cv;   ///< workers: a new job was published
  std::condition_variable done_cv;   ///< submitter: job.remaining hit zero
  std::shared_ptr<Job> job;          ///< active job, or null
  std::uint64_t job_gen = 0;         ///< bumped per publication
  std::vector<std::thread> threads;
  bool stop = false;
  std::mutex submit_mu;              ///< serializes run() callers
};

HostPool::HostPool() : state_(new State) {}

HostPool& HostPool::instance() {
  static HostPool pool;
  return pool;
}

HostPool::~HostPool() {
  if (state_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lk(state_->mu);
    state_->stop = true;
  }
  state_->work_cv.notify_all();
  for (std::thread& t : state_->threads) t.join();
  delete state_;
}

std::uint32_t HostPool::workers() const {
  if (state_ == nullptr) return 0;
  std::lock_guard<std::mutex> lk(state_->mu);
  return static_cast<std::uint32_t>(state_->threads.size());
}

void HostPool::ensure_workers_locked(std::uint32_t want) {
  want = std::min(want, kMaxSimThreads - 1);
  while (state_->threads.size() < want) {
    state_->threads.emplace_back([this] { worker_main(); });
  }
}

bool HostPool::drain(Job& job) {
  bool finished_last = false;
  for (;;) {
    const std::uint32_t s = job.next.fetch_add(1, std::memory_order_relaxed);
    if (s >= job.nshards) return finished_last;
    (*job.fn)(s);
    if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      finished_last = true;
    }
  }
}

void HostPool::worker_main() {
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lk(state_->mu);
      state_->work_cv.wait(
          lk, [&] { return state_->stop || state_->job_gen != seen; });
      if (state_->stop) return;
      seen = state_->job_gen;
      job = state_->job;
    }
    if (job && drain(*job)) {
      // Last shard done: wake the submitter. The empty critical section
      // orders the wake after the submitter entered its wait.
      { std::lock_guard<std::mutex> lk(state_->mu); }
      state_->done_cv.notify_all();
    }
  }
}

void HostPool::run(std::uint32_t nshards,
                   const std::function<void(std::uint32_t)>& fn) {
  if (nshards == 0) return;
  if (nshards == 1) {
    fn(0);  // serial fast path: never touches threads or locks
    return;
  }
  std::lock_guard<std::mutex> submit_lk(state_->submit_mu);

  auto job = std::make_shared<Job>();
  job->nshards = nshards;
  job->fn = &fn;
  job->remaining.store(nshards, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(state_->mu);
    ensure_workers_locked(nshards - 1);
    state_->job = job;
    ++state_->job_gen;
  }
  state_->work_cv.notify_all();

  drain(*job);  // the caller is always one of the executors
  std::unique_lock<std::mutex> lk(state_->mu);
  state_->done_cv.wait(lk, [&] {
    return job->remaining.load(std::memory_order_acquire) == 0;
  });
  state_->job.reset();
}

}  // namespace accred::gpusim
