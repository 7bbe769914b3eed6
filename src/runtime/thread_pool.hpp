#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/annotations.hpp"

namespace pfm::runtime {

/// Runs fn(0) ... fn(n-1) inline on the calling thread with the error
/// contract of ThreadPool::parallel_for_captured: `errors` is resized to n
/// and errors[i] receives the exception fn(i) threw (null when it
/// succeeded); every index runs.
void for_each_captured(std::size_t n,
                       const std::function<void(std::size_t)>& fn,
                       std::vector<std::exception_ptr>& errors);

/// Fixed-size thread pool for data-parallel index loops. Deliberately
/// minimal — no task futures, no dynamic sizing: the fleet's stages are
/// homogeneous index ranges. Workers are persistent: a batch is published
/// through an atomic generation counter (a release-store the workers
/// acquire-spin on for a bounded number of iterations before parking on
/// a condition variable), its indices are pre-partitioned into one queue
/// per thread, and each thread drains its own queue before stealing from
/// its neighbours. Dispatch falls back to an inline loop whenever waking
/// workers cannot help (single-index batches, or fewer hardware threads
/// than it takes to overlap anything). Which thread runs an index never
/// influences results; outputs go to disjoint slots.
///
/// The constructing thread participates in every parallel_for, so
/// ThreadPool(1) spawns no workers at all and runs loops inline.
class ThreadPool {
 public:
  /// `num_threads` counts the caller: the pool spawns num_threads - 1
  /// workers. 0 is treated as 1.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads applied to a loop, caller included.
  std::size_t num_threads() const noexcept { return workers_.size() + 1; }

  /// Runs fn(0) ... fn(n-1), distributed over the pool; returns when all
  /// n calls finished. Not reentrant and not thread-safe: only the
  /// owning thread may call it, and fn must not call parallel_for on the
  /// same pool. If any fn throws, every index still runs and the
  /// lowest-index exception is rethrown here after the loop drains.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Like parallel_for, but failures never propagate: `errors` is resized
  /// to n and errors[i] receives the exception fn(i) threw (null when it
  /// succeeded). Every index runs, so a caller can map each failure back
  /// to the task — the fleet loop uses this to quarantine the one node
  /// that threw instead of aborting the round.
  void parallel_for_captured(std::size_t n,
                             const std::function<void(std::size_t)>& fn,
                             std::vector<std::exception_ptr>& errors);

 private:
  void run_worker(std::size_t shard);
  // The batch descriptor (fn_/errors_) and the per-shard cursors are
  // published *before* the release-store on batch_gen_, and every worker
  // access happens after the matching acquire-load, so the
  // happens-before edge the mu_ annotation documents is carried by the
  // generation counter instead of the lock.
  void publish_and_run(std::size_t n, const std::function<void(std::size_t)>& fn,
                       std::vector<std::exception_ptr>& errors)
      PFM_NO_THREAD_SAFETY_ANALYSIS;
  // Drains the caller's/worker's own shard queue, then steals from the
  // neighbouring shards until the whole index space is exhausted.
  void run_shards(std::size_t first_shard) PFM_NO_THREAD_SAFETY_ANALYSIS;

  std::vector<std::thread> workers_;
  // Hardware parallelism actually available to this process; dispatching
  // to more runnable threads than cores only adds wake/sleep churn.
  std::size_t effective_threads_ = 1;

  Mutex mu_;
  std::condition_variable work_cv_;  // signals workers: new batch / stop
  std::condition_variable done_cv_;  // signals caller: workers drained
  bool stop_ PFM_GUARDED_BY(mu_) = false;

  // Current batch, written by publish_and_run before workers are woken.
  // Exceptions land in (*errors_)[i] — disjoint slots, no lock. Guarded
  // by mu_ for every access except the functions annotated above (see
  // their comment for the replacement happens-before edge).
  const std::function<void(std::size_t)>* fn_ PFM_GUARDED_BY(mu_) = nullptr;
  std::vector<std::exception_ptr>* errors_ PFM_GUARDED_BY(mu_) = nullptr;
  std::vector<std::exception_ptr> scratch_errors_;  // parallel_for's buffer

  // Batch barrier: generation counter (release on publish, acquire on
  // consume), outstanding-worker count, and the per-shard index queues
  // ([cursor, end) per shard; stealing walks the other shards' cursors,
  // so every index still runs exactly once).
  std::atomic<std::uint64_t> batch_gen_{0};
  std::atomic<std::size_t> batch_pending_{0};
  std::unique_ptr<std::atomic<std::size_t>[]> shard_next_;
  std::vector<std::size_t> shard_end_ PFM_GUARDED_BY(mu_);
};

}  // namespace pfm::runtime
