// Explicit per-iteration task graph (ROADMAP item #1).
//
// One training iteration is modelled as a DAG of typed nodes — fetch,
// compute/update, grad-deposit, flush, checkpoint-prestage — with declared
// dependency edges per subgroup. The paper's fixed prefetch window is just
// extra edges on the same DAG. The GraphExecutor (graph/graph_executor.hpp)
// topologically schedules ready nodes onto a work-stealing pool or the
// calling thread; IO nodes submit through the IoScheduler and complete
// asynchronously via IoRequest::on_settle.
//
// Build-time contract: edges are validated as they are added (bounds,
// self-edges, duplicates) and validate() rejects cycles via Kahn's
// algorithm *before* anything executes — a cyclic graph never runs.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace mlpo {

class TaskContext;

/// Node types of the iteration DAG. The kind is metadata (telemetry,
/// diagnostics, edge-rule documentation); scheduling treats all kinds
/// uniformly and only dependencies + order_rank decide execution.
enum class NodeKind : u8 {
  kFetch = 0,           ///< tier -> host read of subgroup state
  kCompute,             ///< upscale/convert + CPU-Adam + H2D push
  kGradDeposit,         ///< gradient traffic (D2H or FP32 grad re-read)
  kFlush,               ///< host -> tier write-back of updated state
  kCheckpointPrestage,  ///< copy to a persistent path for snapshotting
};

const char* node_kind_name(NodeKind kind);

/// A node's body. Runs on a pool worker, or on run()'s calling thread when
/// the executor has no pool; may call TaskContext::defer() to
/// complete asynchronously (the IO-node pattern) and should poll
/// TaskContext::cancelled() inside long loops.
using NodeWork = std::function<void(TaskContext&)>;

class TaskGraph {
 public:
  struct Node {
    NodeKind kind = NodeKind::kCompute;
    std::string label;
    /// Priority among ready nodes, across the whole run (lower runs
    /// first). Engines derive it from the UpdateOrderPolicy's position, so
    /// the policy steers — but does not serialize — the schedule.
    u64 order_rank = 0;
    NodeWork work;  ///< empty = pure barrier node (completes immediately)
    std::vector<u32> out;  ///< dependents (edges leave this node)
    u32 in_degree = 0;     ///< incoming edge count
  };

  /// Append a node; returns its id (dense, starting at 0).
  u32 add_node(NodeKind kind, std::string label, u64 order_rank,
               NodeWork work);

  /// Declare "`from` must finish before `to` starts". Throws
  /// std::out_of_range for unknown ids and std::logic_error for self or
  /// duplicate edges.
  void add_edge(u32 from, u32 to);

  std::size_t node_count() const { return nodes_.size(); }
  const Node& node(u32 id) const { return nodes_.at(id); }

  /// Reject cyclic graphs before execution: Kahn's algorithm; throws
  /// std::logic_error naming a node on the cycle.
  void validate() const;

 private:
  friend class GraphExecutor;
  std::vector<Node> nodes_;
};

}  // namespace mlpo
