// TaskGraph + GraphExecutor: build-time edge validation, cycle rejection
// before execution, topological scheduling, deferred (IO-style) node
// completion, cancellation mid-graph, and the run counters the engines
// fold into IterationReport — on a pool, and on the calling thread with no
// pool (the engines' "linear" shape). The WorkStealingPool units at the
// bottom cover the pool telemetry the executor reports deltas of.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "graph/graph_executor.hpp"
#include "graph/task_graph.hpp"
#include "util/work_stealing_pool.hpp"

namespace mlpo {
namespace {

// Thread-safe completion recorder: nodes append their id as they run, the
// test asserts partial (edge) order afterwards.
struct OrderRecorder {
  std::mutex mutex;
  std::vector<u32> sequence;

  void record(u32 id) {
    std::lock_guard<std::mutex> lock(mutex);
    sequence.push_back(id);
  }
  // Position of `id` in the recorded sequence; fails the test if absent.
  std::size_t position(u32 id) const {
    for (std::size_t i = 0; i < sequence.size(); ++i) {
      if (sequence[i] == id) return i;
    }
    ADD_FAILURE() << "node " << id << " never ran";
    return 0;
  }
};

NodeWork record_work(OrderRecorder& rec, u32 tag) {
  return [&rec, tag](TaskContext&) { rec.record(tag); };
}

TEST(TaskGraph, EdgeValidationAtBuildTime) {
  TaskGraph g;
  const u32 a = g.add_node(NodeKind::kFetch, "a", 0, {});
  const u32 b = g.add_node(NodeKind::kCompute, "b", 1, {});
  g.add_edge(a, b);
  EXPECT_THROW(g.add_edge(a, b), std::logic_error);   // duplicate
  EXPECT_THROW(g.add_edge(a, a), std::logic_error);   // self edge
  EXPECT_THROW(g.add_edge(a, 99), std::out_of_range); // unknown id
  EXPECT_THROW(g.add_edge(99, b), std::out_of_range);
  EXPECT_NO_THROW(g.validate());
}

TEST(TaskGraph, CycleRejectedBeforeExecution) {
  TaskGraph g;
  std::atomic<int> ran{0};
  const u32 a = g.add_node(NodeKind::kCompute, "a", 0,
                           [&ran](TaskContext&) { ++ran; });
  const u32 b = g.add_node(NodeKind::kCompute, "b", 1,
                           [&ran](TaskContext&) { ++ran; });
  const u32 c = g.add_node(NodeKind::kCompute, "c", 2,
                           [&ran](TaskContext&) { ++ran; });
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.add_edge(c, a);  // closes the cycle; legal as an edge, fatal as a graph
  EXPECT_THROW(g.validate(), std::logic_error);

  // run() validates first: a cyclic graph never reaches the pool.
  WorkStealingPool pool(2);
  GraphExecutor exec(&pool);
  EXPECT_THROW(exec.run(g), std::logic_error);
  EXPECT_EQ(ran.load(), 0);
}

TEST(GraphExecutor, EmptyGraphIsANoOp) {
  WorkStealingPool pool(2);
  GraphExecutor exec(&pool);
  TaskGraph g;
  const auto stats = exec.run(g);
  EXPECT_EQ(stats.nodes_executed, 0u);
  EXPECT_EQ(stats.frontier_high_water, 0u);
}

TEST(GraphExecutor, ChainRunsInTopologicalOrder) {
  WorkStealingPool pool(4);
  GraphExecutor exec(&pool);
  OrderRecorder rec;
  TaskGraph g;
  std::vector<u32> chain;
  for (u32 i = 0; i < 8; ++i) {
    chain.push_back(g.add_node(NodeKind::kCompute, "n", i,
                               record_work(rec, i)));
    if (i > 0) g.add_edge(chain[i - 1], chain[i]);
  }
  const auto stats = exec.run(g);
  EXPECT_EQ(stats.nodes_executed, 8u);
  EXPECT_EQ(stats.nodes_skipped, 0u);
  ASSERT_EQ(rec.sequence.size(), 8u);
  for (u32 i = 0; i < 8; ++i) EXPECT_EQ(rec.sequence[i], i);
  // A fully serial chain keeps the ready frontier at exactly one node.
  EXPECT_EQ(stats.frontier_high_water, 1u);
}

TEST(GraphExecutor, DiamondDependenciesRespected) {
  WorkStealingPool pool(4);
  GraphExecutor exec(&pool);
  OrderRecorder rec;
  TaskGraph g;
  const u32 top = g.add_node(NodeKind::kFetch, "top", 0, record_work(rec, 0));
  const u32 left =
      g.add_node(NodeKind::kCompute, "left", 1, record_work(rec, 1));
  const u32 right =
      g.add_node(NodeKind::kCompute, "right", 2, record_work(rec, 2));
  const u32 bottom =
      g.add_node(NodeKind::kFlush, "bottom", 3, record_work(rec, 3));
  g.add_edge(top, left);
  g.add_edge(top, right);
  g.add_edge(left, bottom);
  g.add_edge(right, bottom);

  const auto stats = exec.run(g);
  EXPECT_EQ(stats.nodes_executed, 4u);
  ASSERT_EQ(rec.sequence.size(), 4u);
  EXPECT_LT(rec.position(0), rec.position(1));
  EXPECT_LT(rec.position(0), rec.position(2));
  EXPECT_LT(rec.position(1), rec.position(3));
  EXPECT_LT(rec.position(2), rec.position(3));
  // The middle layer was released together at least once.
  EXPECT_GE(stats.frontier_high_water, 2u);
}

TEST(GraphExecutor, FanOutFrontierHighWaterCountsTheWholeRelease) {
  WorkStealingPool pool(2);
  GraphExecutor exec(&pool);
  TaskGraph g;
  const u32 root = g.add_node(NodeKind::kFetch, "root", 0, {});
  constexpr u32 kChildren = 16;
  for (u32 i = 0; i < kChildren; ++i) {
    g.add_edge(root, g.add_node(NodeKind::kCompute, "child", i, {}));
  }
  const auto stats = exec.run(g);
  // Finishing the root releases every child at once: the frontier peaks
  // at the full fan-out regardless of how fast the pool drains it.
  EXPECT_EQ(stats.frontier_high_water, kChildren);
  EXPECT_EQ(stats.nodes_executed, 1u + kChildren);
}

TEST(GraphExecutor, BarrierNodesWithNoWorkComplete) {
  WorkStealingPool pool(2);
  GraphExecutor exec(&pool);
  OrderRecorder rec;
  TaskGraph g;
  const u32 a = g.add_node(NodeKind::kCompute, "a", 0, record_work(rec, 0));
  const u32 barrier = g.add_node(NodeKind::kCheckpointPrestage, "b", 1, {});
  const u32 c = g.add_node(NodeKind::kCompute, "c", 2, record_work(rec, 2));
  g.add_edge(a, barrier);
  g.add_edge(barrier, c);
  const auto stats = exec.run(g);
  EXPECT_EQ(stats.nodes_executed, 3u);
  EXPECT_LT(rec.position(0), rec.position(2));
}

TEST(GraphExecutor, DeferredNodeFinishesFromItsCompletionCallback) {
  WorkStealingPool pool(2);
  GraphExecutor exec(&pool);
  OrderRecorder rec;
  TaskGraph g;

  std::function<void(std::exception_ptr)> completion;
  std::mutex completion_mutex;
  std::condition_variable completion_cv;

  const u32 io = g.add_node(
      NodeKind::kFetch, "io", 0,
      [&](TaskContext& tc) {
        // IO-node pattern: capture the completion, return immediately —
        // the node must NOT finish (and must not release `after`) until
        // the callback fires from the "dispatch" thread below.
        std::lock_guard<std::mutex> lock(completion_mutex);
        completion = tc.defer();
        completion_cv.notify_one();
      });
  const u32 after =
      g.add_node(NodeKind::kCompute, "after", 1, record_work(rec, 1));
  g.add_edge(io, after);

  std::thread settle_thread([&] {
    std::unique_lock<std::mutex> lock(completion_mutex);
    completion_cv.wait(lock, [&] { return completion != nullptr; });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto cb = completion;
    lock.unlock();
    cb(nullptr);
    cb(nullptr);  // idempotent: the second invocation must be ignored
  });

  const auto stats = exec.run(g);
  settle_thread.join();
  EXPECT_EQ(stats.nodes_executed, 2u);
  EXPECT_EQ(rec.sequence.size(), 1u);  // `after` ran exactly once
}

TEST(GraphExecutor, FailureCancelsDownstreamAndRethrows) {
  WorkStealingPool pool(2);
  GraphExecutor exec(&pool);
  std::atomic<int> cancel_fired{0};
  std::atomic<bool> downstream_ran{false};
  TaskGraph g;
  const u32 boom = g.add_node(NodeKind::kFetch, "boom", 0, [](TaskContext&) {
    throw std::runtime_error("tier fail-stopped");
  });
  const u32 mid = g.add_node(NodeKind::kCompute, "mid", 1,
                             [&downstream_ran](TaskContext&) {
                               downstream_ran.store(true);
                             });
  const u32 tail = g.add_node(NodeKind::kFlush, "tail", 2,
                              [&downstream_ran](TaskContext&) {
                                downstream_ran.store(true);
                              });
  g.add_edge(boom, mid);
  g.add_edge(mid, tail);

  try {
    exec.run(g, [&cancel_fired] { ++cancel_fired; });
    FAIL() << "run() must rethrow the first node error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "tier fail-stopped");
  }
  EXPECT_EQ(cancel_fired.load(), 1);       // exactly once
  EXPECT_FALSE(downstream_ran.load());     // released-but-skipped
}

TEST(GraphExecutor, CancellationMidGraphSkipsIndependentBranches) {
  WorkStealingPool pool(2);
  GraphExecutor exec(&pool);
  TaskGraph g;
  std::atomic<int> late_ran{0};

  // One failing root and a long independent chain behind a gate: the
  // chain's tail nodes observe cancelled() (their work is skipped) while
  // the run still settles every node before rethrowing.
  const u32 boom = g.add_node(NodeKind::kFetch, "boom", 0, [](TaskContext&) {
    throw std::runtime_error("boom");
  });
  (void)boom;
  u32 prev = g.add_node(NodeKind::kCompute, "gate", 1, [](TaskContext&) {
    // Give the failure a head start so the chain behind this node is
    // released only after cancellation flipped.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  });
  for (u32 i = 0; i < 6; ++i) {
    const u32 next = g.add_node(NodeKind::kCompute, "late", 2 + i,
                                [&late_ran](TaskContext& tc) {
                                  if (!tc.cancelled()) ++late_ran;
                                });
    g.add_edge(prev, next);
    prev = next;
  }

  EXPECT_THROW(exec.run(g), std::runtime_error);
  // The skipped tail must not have executed its payload. (The gate node
  // itself may or may not have been skipped depending on timing; the
  // guarded counter is what the contract promises.)
  EXPECT_EQ(late_ran.load(), 0);
}

TEST(GraphExecutor, DeferredErrorPropagates) {
  WorkStealingPool pool(2);
  GraphExecutor exec(&pool);
  std::atomic<bool> downstream_ran{false};
  // The settle thread is spawned from the main thread (handed the defer
  // callback through a promise) and joined before the test ends, and the
  // main thread keeps its own exception_ptr alive past the join: the
  // exception's FINAL refcount release must not happen on the settle
  // thread — that release lives in uninstrumented libstdc++ eh code, so
  // TSan cannot see it ordering against the catch-side what() read (the
  // same blind spot IoScheduler::settle_error pins errors for).
  std::promise<std::function<void(std::exception_ptr)>> done_promise;
  auto done_future = done_promise.get_future();
  const std::exception_ptr settled =
      std::make_exception_ptr(std::runtime_error("settle failed"));
  std::thread settler([&done_future, &settled] {
    auto done = done_future.get();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    done(settled);
  });
  TaskGraph g;
  const u32 io =
      g.add_node(NodeKind::kFetch, "io", 0, [&done_promise](TaskContext& tc) {
        done_promise.set_value(tc.defer());
      });
  const u32 next = g.add_node(NodeKind::kCompute, "next", 1,
                              [&downstream_ran](TaskContext&) {
                                downstream_ran.store(true);
                              });
  g.add_edge(io, next);

  try {
    exec.run(g);
    FAIL() << "deferred error must rethrow from run()";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "settle failed");
  }
  settler.join();
  EXPECT_FALSE(downstream_ran.load());
}

TEST(GraphExecutor, ReusableAcrossRuns) {
  WorkStealingPool pool(2);
  GraphExecutor exec(&pool);
  for (int round = 0; round < 3; ++round) {
    TaskGraph g;
    std::atomic<int> ran{0};
    const u32 a = g.add_node(NodeKind::kCompute, "a", 0,
                             [&ran](TaskContext&) { ++ran; });
    const u32 b = g.add_node(NodeKind::kCompute, "b", 1,
                             [&ran](TaskContext&) { ++ran; });
    g.add_edge(a, b);
    const auto stats = exec.run(g);
    EXPECT_EQ(stats.nodes_executed, 2u);
    EXPECT_EQ(ran.load(), 2);
  }
}

TEST(GraphExecutor, LateReleasedLowRankStartsBeforeQueuedHigherRanks) {
  // Both workers are held in gate nodes while three high-rank nodes wait
  // ready. A low-rank node is then released by a deferred completion; when
  // one worker is let go, it must start the low-rank node, not the nodes
  // that were queued before it.
  WorkStealingPool pool(2);
  GraphExecutor exec(&pool);
  OrderRecorder rec;
  TaskGraph g;

  std::promise<std::function<void(std::exception_ptr)>> deferred;
  std::promise<void> open_first;
  std::promise<void> open_second;
  const std::shared_future<void> first = open_first.get_future().share();
  const std::shared_future<void> second = open_second.get_future().share();
  std::atomic<int> gated{0};

  const u32 io = g.add_node(NodeKind::kFetch, "io", 0, [&](TaskContext& tc) {
    deferred.set_value(tc.defer());
  });
  for (const auto& gate : {first, second}) {
    g.add_node(NodeKind::kCompute, "gate", 1, [&gated, gate](TaskContext&) {
      ++gated;
      gate.wait();
    });
  }
  constexpr u32 kLow = 100;
  const u32 low = g.add_node(NodeKind::kFlush, "low", 2,
                             [&rec, &open_second](TaskContext&) {
                               rec.record(kLow);
                               open_second.set_value();
                             });
  g.add_edge(io, low);
  for (u32 k = 0; k < 3; ++k) {
    g.add_node(NodeKind::kCompute, "high", 10 + k, record_work(rec, k));
  }

  auto run = std::async(std::launch::async, [&] { return exec.run(g); });
  auto complete = deferred.get_future().get();
  while (gated.load() < 2) std::this_thread::yield();
  complete(nullptr);  // releases `low` behind the queued high-rank nodes
  open_first.set_value();
  const auto stats = run.get();

  EXPECT_EQ(stats.nodes_executed, 7u);
  ASSERT_EQ(rec.sequence.size(), 4u);
  EXPECT_EQ(rec.sequence.front(), kLow);
}

// --- No pool: the calling thread executes ----------------------------------

// Hands a deferred completion to a thread of its own that fires it after a
// short delay, like an IoScheduler settle hook. `fire_id` is that thread.
// If the node never ran, the destructor hands over an empty completion so
// the join cannot hang.
struct Settler {
  std::promise<std::function<void(std::exception_ptr)>> handoff;
  std::thread::id fire_id;
  std::thread thread;

  explicit Settler(std::exception_ptr error = nullptr,
                   std::atomic<bool>* fired = nullptr)
      : thread([this, error, fired] {
          auto done = handoff.get_future().get();
          if (!done) return;
          fire_id = std::this_thread::get_id();
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          if (fired != nullptr) fired->store(true);
          done(error);
        }) {}
  ~Settler() {
    try {
      handoff.set_value(nullptr);
    } catch (const std::future_error&) {
      // Already handed over by the node.
    }
    thread.join();
  }
  NodeWork work() {
    return [this](TaskContext& tc) { handoff.set_value(tc.defer()); };
  }
};

TEST(GraphExecutorNoPool, EveryNodeRunsOnTheCallersThread) {
  GraphExecutor exec(nullptr);
  std::mutex mutex;
  std::vector<std::thread::id> ran_on;
  const auto work = [&](TaskContext&) {
    std::lock_guard<std::mutex> lock(mutex);
    ran_on.push_back(std::this_thread::get_id());
  };
  TaskGraph g;
  const u32 a = g.add_node(NodeKind::kFetch, "a", 0, work);
  const u32 b = g.add_node(NodeKind::kCompute, "b", 1, work);
  const u32 c = g.add_node(NodeKind::kCompute, "c", 2, work);
  const u32 d = g.add_node(NodeKind::kFlush, "d", 3, work);
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.add_edge(b, d);
  g.add_edge(c, d);

  const auto stats = exec.run(g);
  EXPECT_EQ(stats.nodes_executed, 4u);
  EXPECT_EQ(stats.tasks_stolen, 0u);
  ASSERT_EQ(ran_on.size(), 4u);
  for (const auto& id : ran_on) EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(GraphExecutorNoPool, RemoteCompletionReleasesDependentsOntoTheCaller) {
  GraphExecutor exec(nullptr);
  Settler settler;
  std::thread::id after_ran_on;
  TaskGraph g;
  const u32 io = g.add_node(NodeKind::kFetch, "io", 0, settler.work());
  const u32 after = g.add_node(
      NodeKind::kCompute, "after", 1,
      [&after_ran_on](TaskContext&) {
        after_ran_on = std::this_thread::get_id();
      });
  g.add_edge(io, after);

  const auto stats = exec.run(g);
  EXPECT_EQ(stats.nodes_executed, 2u);
  EXPECT_EQ(after_ran_on, std::this_thread::get_id());
  EXPECT_NE(after_ran_on, settler.fire_id);
  // The caller was parked while the completion was in flight.
  EXPECT_GT(stats.idle_seconds, 0.0);
}

TEST(GraphExecutorNoPool, ReadyNodesRunInRankOrder) {
  GraphExecutor exec(nullptr);
  OrderRecorder rec;
  TaskGraph g;
  // Roots added out of rank order, plus nodes released by `first` whose
  // ranks straddle the roots still waiting: the caller always starts the
  // best-ranked ready node.
  const u32 first = g.add_node(NodeKind::kFetch, "first", 0,
                               record_work(rec, 0));
  g.add_node(NodeKind::kCompute, "r5", 5, record_work(rec, 5));
  g.add_node(NodeKind::kCompute, "r3", 3, record_work(rec, 3));
  const u32 r1 = g.add_node(NodeKind::kFlush, "r1", 1, record_work(rec, 1));
  const u32 r4 = g.add_node(NodeKind::kFlush, "r4", 4, record_work(rec, 4));
  g.add_node(NodeKind::kCompute, "r2", 2, record_work(rec, 2));
  g.add_edge(first, r1);
  g.add_edge(first, r4);

  exec.run(g);
  EXPECT_EQ(rec.sequence, (std::vector<u32>{0, 1, 2, 3, 4, 5}));
}

TEST(GraphExecutorNoPool, FirstErrorRethrownOnlyAfterEveryNodeSettled) {
  GraphExecutor exec(nullptr);
  std::atomic<bool> io_settled{false};
  Settler settler(nullptr, &io_settled);
  std::atomic<bool> downstream_ran{false};
  TaskGraph g;
  // The deferred node starts first (rank 0); the failure follows while its
  // completion is still in flight.
  const u32 io = g.add_node(NodeKind::kFetch, "io", 0, settler.work());
  g.add_node(NodeKind::kCompute, "boom", 1, [](TaskContext&) {
    throw std::runtime_error("boom");
  });
  const u32 after = g.add_node(NodeKind::kCompute, "after", 2,
                               [&downstream_ran](TaskContext&) {
                                 downstream_ran.store(true);
                               });
  g.add_edge(io, after);

  try {
    exec.run(g);
    FAIL() << "run() must rethrow the first node error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
    EXPECT_TRUE(io_settled.load()) << "rethrown before the IO node settled";
  }
  EXPECT_FALSE(downstream_ran.load());
}

TEST(GraphExecutorNoPool, OnCancelFiresExactlyOnce) {
  GraphExecutor exec(nullptr);
  // A second failure arrives from the deferred completion after the first
  // one already cancelled the run.
  Settler settler(std::make_exception_ptr(std::runtime_error("second")));
  std::atomic<int> cancel_fired{0};
  TaskGraph g;
  g.add_node(NodeKind::kFetch, "io", 0, settler.work());
  g.add_node(NodeKind::kCompute, "boom", 1, [](TaskContext&) {
    throw std::runtime_error("first");
  });

  try {
    exec.run(g, [&cancel_fired] { ++cancel_fired; });
    FAIL() << "run() must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  EXPECT_EQ(cancel_fired.load(), 1);
}

// --- WorkStealingPool units -------------------------------------------------

TEST(WorkStealingPool, SubmitReturnsRedeemableFuture) {
  WorkStealingPool pool(2);
  EXPECT_GE(pool.size(), 2u);  // floor: a one-worker pool can never steal
  auto fut = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(WorkStealingPool, TrySubmitSucceedsOnLivePool) {
  WorkStealingPool pool(2);
  auto fut = pool.try_submit([] { return 7; });
  ASSERT_TRUE(fut.has_value());
  EXPECT_EQ(fut->get(), 7);
}

TEST(WorkStealingPool, MinimumTwoWorkersEnforced) {
  WorkStealingPool pool(1);
  EXPECT_EQ(pool.size(), 2u);
}

TEST(WorkStealingPool, StealsFromABusyWorkersDeque) {
  WorkStealingPool pool(2);
  std::promise<void> blocker_started;
  std::promise<void> release_blocker;
  auto release_future = release_blocker.get_future().share();
  auto blocked = pool.submit([&blocker_started, release_future] {
    blocker_started.set_value();
    release_future.wait();
  });
  blocker_started.get_future().wait();

  // One worker is pinned; round-robin still lands half the quick tasks on
  // its deque, and the free worker must steal those to finish them.
  std::vector<std::future<void>> futs;
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    futs.push_back(pool.submit([&ran] { ++ran; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(ran.load(), 16);
  EXPECT_GE(pool.tasks_stolen(), 1u);

  release_blocker.set_value();
  blocked.get();
}

TEST(WorkStealingPool, IdleSecondsAccumulateWhileParked) {
  WorkStealingPool pool(2);
  // Let the workers park, then wake them: the park interval is credited
  // to the idle counter on wake.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  pool.submit([] {}).get();
  EXPECT_GT(pool.idle_seconds(), 0.0);
}

}  // namespace
}  // namespace mlpo
