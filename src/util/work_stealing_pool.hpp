// Work-stealing extension of the fixed-size ThreadPool, built for the
// graph executor's irregular task mix (many short IO-submission nodes, a
// few long compute nodes).
//
// Layout: one deque per worker, each under its own small Mutex. A worker
// pops its *own* deque from the front (FIFO in submission order) and
// steals from the *back* of a victim's deque when its own runs dry —
// the classic Chase-Lev discipline, implemented with plain annotated
// mutexes instead of lock-free buffers because graph nodes are coarse
// (microseconds to milliseconds) and the PR-6 thread-safety analysis must
// see every acquisition.
// The pool itself does not order by priority: the graph executor queues
// interchangeable "run the best ready node" tasks and keeps the priority
// order in its own per-run heap, so FIFO here never delays a better node.
//
// Parking: a single global Mutex + CondVar guards the total queued count
// and the stopping flag. Submissions check stopping_ and bump the count
// under that lock, so the shutdown contract is identical to ThreadPool's:
// every task accepted before stop is drained before the workers exit, and
// its future stays redeemable. Lock order is park_mutex_ -> deque mutex
// (submission); take() acquires them strictly in sequence, never nested
// the other way, so the pair cannot deadlock.
//
// Telemetry: tasks_stolen() counts cross-deque pops (how often the graph's
// natural imbalance exercised the steal path) and idle_seconds() sums the
// real time workers spent parked — both feed IterationReport's
// graph-executor counters.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/common.hpp"
#include "util/mutex.hpp"

namespace mlpo {

class WorkStealingPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 2 —
  /// a one-worker pool can never steal and would serialize the graph).
  explicit WorkStealingPool(std::size_t threads = 0);
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; returns a future for its result. Throws if the pool
  /// is shutting down (same contract as ThreadPool::submit).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    auto fut = task->get_future();
    if (!enqueue([task] { (*task)(); })) {
      throw std::runtime_error("WorkStealingPool: submit after stop");
    }
    return fut;
  }

  /// Non-throwing submit: nullopt instead of a throw when racing the
  /// destructor. The executor's shutdown path uses this and runs the task
  /// inline on rejection.
  template <typename F>
  auto try_submit(F&& fn)
      -> std::optional<std::future<std::invoke_result_t<F>>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    auto fut = task->get_future();
    if (!enqueue([task] { (*task)(); })) return std::nullopt;
    return fut;
  }

  /// Cross-deque pops since construction (cumulative).
  u64 tasks_stolen() const {
    return tasks_stolen_.load(std::memory_order_relaxed);
  }
  /// Real (not virtual) seconds workers have spent parked, cumulative
  /// across all workers. Callers take deltas around a region of interest.
  f64 idle_seconds() const;

 private:
  struct WorkerDeque {
    Mutex mutex;
    std::deque<std::function<void()>> tasks MLPO_GUARDED_BY(mutex);
  };

  /// Push onto a deque (the submitting worker's own, or round-robin from
  /// outside threads). Returns false when the pool is stopping.
  bool enqueue(std::function<void()> task);
  /// Pop own front, else steal a victim's back. Decrements the queued
  /// count on success.
  std::optional<std::function<void()>> take(std::size_t self);
  void worker_loop(std::size_t self);

  std::vector<std::unique_ptr<WorkerDeque>> deques_;
  std::vector<std::thread> workers_;

  mutable Mutex park_mutex_;
  CondVar park_cv_;
  std::size_t queued_ MLPO_GUARDED_BY(park_mutex_) = 0;
  bool stopping_ MLPO_GUARDED_BY(park_mutex_) = false;
  f64 idle_seconds_ MLPO_GUARDED_BY(park_mutex_) = 0;

  std::atomic<std::size_t> next_deque_{0};
  std::atomic<u64> tasks_stolen_{0};
};

}  // namespace mlpo
