// Topological scheduler for TaskGraph, on a WorkStealingPool or on the
// calling thread.
//
// run() releases every zero-in-degree node, and each completing node
// releases the dependents it was the last blocker for. Released nodes wait
// in one ready min-heap per run, keyed on (order_rank, node id): order_rank
// is a run-wide priority, so whenever a thread picks up work it starts the
// best-ranked node that is ready *now* — a flush released late still runs
// ahead of every higher-ranked compute already waiting.
//
// With a pool, each release queues one pool task per node. Without one,
// run() itself drains the ready heap on the calling thread and parks on a
// condition variable while only deferred completions are outstanding; a
// completion firing on another thread (an IoScheduler settle hook) only
// releases dependents and wakes the caller, so node bodies never run there
// and no thread is spawned. IO nodes call TaskContext::defer() to complete
// asynchronously from an IoRequest::on_settle hook instead of blocking
// their thread, so every ready transfer is queued on the IoScheduler at
// once.
//
// Failure semantics: the first node error is recorded, the run flips to
// cancelled (TaskContext::cancelled() turns true, unstarted nodes are
// released-but-skipped so the graph unwinds instead of hanging), an
// optional on_cancel hook fires exactly once (the engines use it to
// abandon queued demand reads), and run() rethrows the first error after
// every node — including deferred IO completions — has settled, so no
// node can outlive the state it captured.
#pragma once

#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "graph/task_graph.hpp"
#include "util/mutex.hpp"
#include "util/work_stealing_pool.hpp"

namespace mlpo {

class GraphExecutor;

/// Per-node handle passed to NodeWork. Valid only for the duration of the
/// work call; the completion returned by defer() outlives it.
class TaskContext {
 public:
  /// True once any node has failed (or the run was cancelled). Work that
  /// loops or is about to start something expensive should early-out.
  bool cancelled() const;

  u32 node_id() const { return id_; }

  /// Switch this node to asynchronous completion: the node is *not*
  /// finished when work returns — it finishes when the returned callback
  /// is invoked (with nullptr on success, the failure otherwise). The
  /// callback is thread-safe and idempotent (second and later invocations
  /// are ignored); losing it without calling it hangs the run, exactly
  /// like a promise whose future is never set.
  std::function<void(std::exception_ptr)> defer();

 private:
  friend class GraphExecutor;
  struct RunState;

  TaskContext(RunState& st, u32 id) : st_(&st), id_(id) {}

  RunState* st_;
  u32 id_;
  bool deferred_ = false;
  /// Fired-once flag shared with the callback defer() hands out; heap-
  /// allocated so the losers of the finish race never touch RunState.
  std::shared_ptr<std::atomic<bool>> fired_;
};

class GraphExecutor {
 public:
  /// Counters for one run(); the engines fold these into IterationReport.
  struct Stats {
    u64 nodes_executed = 0;  ///< nodes whose work actually ran
    u64 nodes_skipped = 0;   ///< released after cancellation, work skipped
    /// Most nodes simultaneously released-but-unfinished — how wide the
    /// frontier the pool (and through the IO nodes, the IoScheduler)
    /// actually saw.
    u64 frontier_high_water = 0;
    /// Pool cross-deque pops during the run (always 0 without a pool).
    u64 tasks_stolen = 0;
    /// Real seconds the executing threads spent parked with no ready node:
    /// pool workers with a pool, the calling thread without one.
    f64 idle_seconds = 0;
  };

  /// `pool` is borrowed, not owned (engines keep one across iterations so
  /// workers are not respawned per run). Null runs every node on the
  /// thread that calls run().
  explicit GraphExecutor(WorkStealingPool* pool) : pool_(pool) {}

  /// Execute `graph` to completion and return the run's counters.
  /// Validates first (a cyclic graph never runs). `on_cancel`, when
  /// set, fires exactly once on the first node failure, outside all
  /// executor locks. Rethrows the first error after every node settled.
  Stats run(const TaskGraph& graph, std::function<void()> on_cancel = {});

 private:
  friend class TaskContext;

  /// Queue `count` pool tasks, one per node just released; without a pool,
  /// wake the calling thread instead.
  static void dispatch(TaskContext::RunState& st, std::size_t count);
  /// Pool task body: pop the best-ranked ready node and execute it.
  static void run_next(TaskContext::RunState& st);
  static void exec_node(TaskContext::RunState& st, u32 id);
  static void finish_node(TaskContext::RunState& st, u32 id,
                          std::exception_ptr error);

  WorkStealingPool* pool_;  ///< null: run() executes nodes itself
};

}  // namespace mlpo
