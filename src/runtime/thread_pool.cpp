#include "runtime/thread_pool.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace pfm::runtime {

namespace {

// Busy-wait budget (loop iterations) before a worker goes to sleep, and
// before the caller blocks on batch completion.
constexpr std::size_t kSpinIterations = 4096;

}  // namespace

void for_each_captured(std::size_t n,
                       const std::function<void(std::size_t)>& fn,
                       std::vector<std::exception_ptr>& errors) {
  errors.assign(n, nullptr);
  for (std::size_t i = 0; i < n; ++i) {
    try {
      fn(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  }
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t extra = num_threads > 1 ? num_threads - 1 : 0;
  const std::size_t hw = std::thread::hardware_concurrency();
  effective_threads_ =
      std::min(extra + 1, hw > 0 ? hw : std::size_t{1});
  shard_next_ = std::make_unique<std::atomic<std::size_t>[]>(extra + 1);
  shard_end_.assign(extra + 1, 0);
  workers_.reserve(extra);
  for (std::size_t i = 0; i < extra; ++i) {
    // Worker i claims obs shard i+1 for its whole lifetime (the caller
    // keeps shard 0), so sharded instruments are written contention-free
    // by construction.
    workers_.emplace_back([this, i] {
      obs::set_thread_shard(i + 1);
      run_worker(i + 1);
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

// pfm-hot
void ThreadPool::run_shards(std::size_t first_shard) {
  const std::size_t shards = workers_.size() + 1;
  for (std::size_t k = 0; k < shards; ++k) {
    const std::size_t s = (first_shard + k) % shards;
    const std::size_t end = shard_end_[s];
    for (;;) {
      const std::size_t i = shard_next_[s].fetch_add(1, std::memory_order_relaxed);
      if (i >= end) break;
      try {
        (*fn_)(i);
      } catch (...) {
        (*errors_)[i] = std::current_exception();  // slot i is this task's own
      }
    }
  }
}

void ThreadPool::run_worker(std::size_t shard) {
  std::uint64_t seen = 0;
  for (;;) {
    // Between back-to-back batches the generation bump usually lands
    // within the spin budget, so the worker skips the park/unpark
    // syscalls entirely; an idle pool still ends up on the condition
    // variable and costs nothing.
    std::uint64_t gen = batch_gen_.load(std::memory_order_acquire);
    for (std::size_t spin = 0;
         gen == seen && spin < kSpinIterations; ++spin) {
      gen = batch_gen_.load(std::memory_order_acquire);
    }
    if (gen == seen) {
      MutexLock lock(mu_);
      while (!stop_ && batch_gen_.load(std::memory_order_acquire) == seen) {
        lock.wait(work_cv_);
      }
      if (stop_) return;
      gen = batch_gen_.load(std::memory_order_acquire);
    }
    seen = gen;
    run_shards(shard);
    if (batch_pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // The empty critical section orders this notify after any
      // concurrent caller-side predicate check, closing the lost-wakeup
      // window (the caller's predicate reads the atomic, not mu_ state).
      { MutexLock lock(mu_); }
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::publish_and_run(std::size_t n,
                                 const std::function<void(std::size_t)>& fn,
                                 std::vector<std::exception_ptr>& errors) {
  const std::size_t shards = workers_.size() + 1;
  fn_ = &fn;
  errors_ = &errors;
  for (std::size_t s = 0; s < shards; ++s) {
    shard_next_[s].store(n * s / shards, std::memory_order_relaxed);
    shard_end_[s] = n * (s + 1) / shards;
  }
  batch_pending_.store(workers_.size(), std::memory_order_relaxed);
  batch_gen_.fetch_add(1, std::memory_order_release);
  // Empty critical section: a worker that just checked the generation
  // under mu_ and found it stale is guaranteed to be parked before this
  // notify fires — without it the notify could land in the gap between
  // a worker's predicate check and its wait.
  { MutexLock lock(mu_); }
  work_cv_.notify_all();
  run_shards(0);  // the caller drains shard 0, then steals
  for (std::size_t spin = 0;
       batch_pending_.load(std::memory_order_acquire) != 0 &&
       spin < kSpinIterations;
       ++spin) {
  }
  if (batch_pending_.load(std::memory_order_acquire) != 0) {
    MutexLock lock(mu_);
    while (batch_pending_.load(std::memory_order_acquire) != 0) {
      lock.wait(done_cv_);
    }
  }
  fn_ = nullptr;
  errors_ = nullptr;
}

void ThreadPool::parallel_for_captured(
    std::size_t n, const std::function<void(std::size_t)>& fn,
    std::vector<std::exception_ptr>& errors) {
  // Inline when distribution cannot help: no workers, a single index, or
  // fewer hardware threads than it takes to overlap anything — waking
  // workers that time-slice with the caller only adds handshake churn.
  // Which thread runs an index never affects results.
  if (workers_.empty() || n <= 1 || effective_threads_ <= 1) {
    for_each_captured(n, fn, errors);
    return;
  }
  errors.assign(n, nullptr);
  publish_and_run(n, fn, errors);
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for_captured(n, fn, scratch_errors_);
  for (const auto& e : scratch_errors_) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace pfm::runtime
