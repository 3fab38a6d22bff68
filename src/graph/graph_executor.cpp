#include "graph/graph_executor.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace mlpo {

// Shared state of one run(). Lives on run()'s stack; every node —
// including deferred IO completions firing from dispatch threads — is
// accounted in `remaining`, and run() only returns once it hits zero, so
// nothing here can dangle.
struct TaskContext::RunState {
  const TaskGraph* graph = nullptr;
  WorkStealingPool* pool = nullptr;  ///< null: run()'s caller executes nodes

  Mutex mutex;
  CondVar done_cv;
  std::vector<u32> pending MLPO_GUARDED_BY(mutex);   ///< in-degree left
  std::vector<u8> finished MLPO_GUARDED_BY(mutex);   ///< double-finish guard
  /// Released, not yet started nodes: a min-heap on (order_rank, id) shared
  /// by the whole run, so rank orders every ready node — not only the ones
  /// released together.
  std::vector<u32> ready MLPO_GUARDED_BY(mutex);
  std::size_t remaining MLPO_GUARDED_BY(mutex) = 0;  ///< unfinished nodes
  u64 frontier MLPO_GUARDED_BY(mutex) = 0;  ///< released, not finished
  u64 frontier_high_water MLPO_GUARDED_BY(mutex) = 0;
  u64 executed MLPO_GUARDED_BY(mutex) = 0;
  u64 skipped MLPO_GUARDED_BY(mutex) = 0;
  std::exception_ptr first_error MLPO_GUARDED_BY(mutex);

  std::atomic<bool> cancelled{false};
  std::function<void()> on_cancel;  ///< fired once, outside mutex

  /// Heap order: lower (order_rank, id) on top.
  bool starts_after(u32 a, u32 b) const {
    const u64 ra = graph->node(a).order_rank;
    const u64 rb = graph->node(b).order_rank;
    return ra != rb ? ra > rb : a > b;
  }
  void release(u32 id) MLPO_REQUIRES(mutex) {
    ready.push_back(id);
    std::push_heap(ready.begin(), ready.end(),
                   [this](u32 a, u32 b) { return starts_after(a, b); });
  }
  u32 take_best() MLPO_REQUIRES(mutex) {
    std::pop_heap(ready.begin(), ready.end(),
                  [this](u32 a, u32 b) { return starts_after(a, b); });
    const u32 id = ready.back();
    ready.pop_back();
    return id;
  }
};

bool TaskContext::cancelled() const {
  return st_->cancelled.load(std::memory_order_acquire);
}

std::function<void(std::exception_ptr)> TaskContext::defer() {
  deferred_ = true;
  if (!fired_) fired_ = std::make_shared<std::atomic<bool>>(false);
  RunState* st = st_;
  const u32 id = id_;
  return [st, id, fired = fired_](std::exception_ptr error) {
    // Exactly once: the settle path, a caller retry, and exec_node's
    // post-defer error path all race through this flag; only the winner
    // calls finish_node (the losers must not even read *st — the winner's
    // finish may be the run's last, after which st is destroyed).
    if (fired->exchange(true, std::memory_order_acq_rel)) return;
    GraphExecutor::finish_node(*st, id, std::move(error));
  };
}

void GraphExecutor::dispatch(TaskContext::RunState& st, std::size_t count) {
  if (st.pool == nullptr) {
    // The caller pops released nodes itself; a release from another
    // thread (a deferred completion) only has to wake it.
    if (count > 0) st.done_cv.notify_all();
    return;
  }
  // One pool task per released node, but a task is not bound to the node
  // whose release queued it: it runs whichever ready node ranks best when
  // it starts. The heap holds exactly as many nodes as tasks not yet
  // started, so every task finds one — and, being unfinished, that node
  // keeps run() (and st) alive while the task runs.
  for (std::size_t i = 0; i < count; ++i) {
    // try_submit, not submit: on the shutdown path (a cancelled run
    // unwinding while the pool is being torn down) the pool may already
    // be stopping — the node then runs inline on this thread, where the
    // cancelled flag skips its work and only the bookkeeping happens.
    if (!st.pool->try_submit([&st] { run_next(st); })) run_next(st);
  }
}

void GraphExecutor::run_next(TaskContext::RunState& st) {
  u32 id = 0;
  {
    MutexLock lock(st.mutex);
    id = st.take_best();
  }
  exec_node(st, id);
}

void GraphExecutor::exec_node(TaskContext::RunState& st, u32 id) {
  TaskContext ctx(st, id);
  std::exception_ptr error;
  const bool skip = st.cancelled.load(std::memory_order_acquire);
  const NodeWork& work = st.graph->nodes_[id].work;
  // Count BEFORE running the work: once a deferred node's work has
  // submitted its IO, the settle callback may finish the node — and if it
  // was the run's last, run() returns and st is destroyed. So after
  // work() returns, st may only be touched by whoever wins the node's
  // finish; plain bookkeeping here would be a use-after-free.
  {
    MutexLock lock(st.mutex);
    if (skip) {
      ++st.skipped;
    } else {
      ++st.executed;
    }
  }
  if (!skip && work) {
    try {
      work(ctx);
    } catch (...) {
      error = std::current_exception();
    }
  }
  if (ctx.deferred_) {
    // Success: the completion callback owns the finish. A throw after
    // defer() finishes with the error — through the same fired-once flag,
    // so if the completion callback got there first we touch nothing.
    if (!error) return;
    if (ctx.fired_->exchange(true, std::memory_order_acq_rel)) return;
  }
  finish_node(st, id, std::move(error));
}

void GraphExecutor::finish_node(TaskContext::RunState& st, u32 id,
                                std::exception_ptr error) {
  std::size_t released = 0;
  bool fire_cancel = false;
  {
    MutexLock lock(st.mutex);
    if (st.finished[id]) return;  // defer() misuse; never finish twice
    st.finished[id] = 1;
    if (error && !st.first_error) {
      st.first_error = std::move(error);
      st.cancelled.store(true, std::memory_order_release);
      fire_cancel = st.on_cancel != nullptr;
    }
    --st.frontier;
    for (const u32 to : st.graph->nodes_[id].out) {
      if (--st.pending[to] == 0) {
        st.release(to);
        ++released;
      }
    }
    st.frontier += released;
    st.frontier_high_water = std::max(st.frontier_high_water, st.frontier);
  }
  if (fire_cancel) st.on_cancel();
  dispatch(st, released);
  // The remaining-count decrement is the LAST touch of st: once it hits
  // zero run() may wake, return, and destroy st, so nothing below this
  // block may reference it. notify fires under the lock for the same
  // reason — after our unlock the waiter owns the state.
  {
    MutexLock lock(st.mutex);
    if (--st.remaining == 0) st.done_cv.notify_all();
  }
}

GraphExecutor::Stats GraphExecutor::run(const TaskGraph& graph,
                                        std::function<void()> on_cancel) {
  graph.validate();
  Stats stats;
  if (graph.node_count() == 0) return stats;

  const u64 stolen_start = pool_ != nullptr ? pool_->tasks_stolen() : 0;
  const f64 idle_start = pool_ != nullptr ? pool_->idle_seconds() : 0;

  TaskContext::RunState st;
  st.graph = &graph;
  st.pool = pool_;
  st.on_cancel = std::move(on_cancel);

  std::size_t roots = 0;
  {
    MutexLock lock(st.mutex);
    const auto n = static_cast<u32>(graph.node_count());
    st.pending.resize(n);
    st.finished.assign(n, 0);
    st.remaining = n;
    for (u32 id = 0; id < n; ++id) {
      st.pending[id] = graph.nodes_[id].in_degree;
      if (st.pending[id] == 0) {
        st.release(id);
        ++roots;
      }
    }
    st.frontier = roots;
    st.frontier_high_water = st.frontier;
  }
  dispatch(st, roots);

  // With a pool this thread only waits. Without one it is the executor:
  // it runs the best-ranked ready node, and parks only while every
  // unfinished node is a deferred completion still in flight.
  using Clock = std::chrono::steady_clock;
  f64 caller_idle = 0;
  std::exception_ptr error;
  for (;;) {
    u32 next = 0;
    {
      MutexLock lock(st.mutex);
      while (st.remaining > 0 && (pool_ != nullptr || st.ready.empty())) {
        const auto parked = Clock::now();
        st.done_cv.wait(lock);
        caller_idle +=
            std::chrono::duration<f64>(Clock::now() - parked).count();
      }
      if (st.remaining == 0) {
        stats.nodes_executed = st.executed;
        stats.nodes_skipped = st.skipped;
        stats.frontier_high_water = st.frontier_high_water;
        error = st.first_error;
        break;
      }
      next = st.take_best();
    }
    exec_node(st, next);
  }
  if (pool_ != nullptr) {
    // Deltas over the borrowed pool: exact while the engine owns its pool
    // (the intended wiring), approximate if callers share one.
    stats.tasks_stolen = pool_->tasks_stolen() - stolen_start;
    stats.idle_seconds = pool_->idle_seconds() - idle_start;
  } else {
    stats.idle_seconds = caller_idle;
  }
  if (error) std::rethrow_exception(error);
  return stats;
}

}  // namespace mlpo
