// Aggregated per-iteration metrics — the exact quantities the paper reports:
// phase breakdown (Figs. 7, 11, 13-15), update throughput in Mparams/s
// (Figs. 8, 12), effective I/O throughput 2*bytes/(t_r+t_w) (Fig. 9), and
// per-subgroup transfer traces (Fig. 5).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "io/io_request.hpp"
#include "util/common.hpp"

namespace mlpo {

/// Update-phase I/O scheduler counters for one priority class (delta of
/// the IoScheduler's cumulative stats over run_update). Times are virtual
/// seconds summed over the class's requests.
struct IoClassCounters {
  u64 requests = 0;   ///< dispatched during the phase (completed + failed)
  u64 cancelled = 0;  ///< dropped while queued
  u64 sim_bytes = 0;
  f64 queue_wait_seconds = 0;  ///< submit -> dispatch
  f64 service_seconds = 0;     ///< dispatch -> done (includes lock wait)

  f64 mean_queue_wait() const {
    return requests > 0 ? queue_wait_seconds / static_cast<f64>(requests) : 0;
  }
};

struct SubgroupTrace {
  u32 subgroup_id;
  u64 sim_bytes_read;
  u64 sim_bytes_written;
  f64 read_seconds;     ///< virtual time spent fetching
  f64 write_seconds;    ///< virtual time spent flushing
  f64 compute_seconds;  ///< CPU update time
  bool host_cache_hit;  ///< subgroup served from host memory, no fetch

  f64 read_throughput() const {
    return read_seconds > 0 ? static_cast<f64>(sim_bytes_read) / read_seconds : 0;
  }
  f64 write_throughput() const {
    return write_seconds > 0 ? static_cast<f64>(sim_bytes_written) / write_seconds
                             : 0;
  }
};

/// Per-tenant slice of a multi-job iteration window: which job the counters
/// belong to and how its own iteration cadence tracked its SLO. Slices are
/// carried through every merge (accumulate_counters matches by tenant id),
/// so cluster- and fleet-level reports keep per-job accountability instead
/// of blending the tenants together.
struct TenantSlice {
  u32 tenant = 0;
  u32 iterations = 0;           ///< iterations the slice covers
  f64 iteration_seconds = 0;    ///< summed iteration wall (virtual)
  f64 max_iteration_seconds = 0;  ///< slowest single iteration (merge: max)
  u32 deadline_hits = 0;    ///< iterations within the job's deadline
  u32 deadline_misses = 0;  ///< iterations past it (0/0 when no deadline)

  f64 mean_iteration_seconds() const {
    return iterations > 0 ? iteration_seconds / static_cast<f64>(iterations)
                          : 0;
  }
  f64 deadline_hit_rate() const {
    const u32 n = deadline_hits + deadline_misses;
    return n > 0 ? static_cast<f64>(deadline_hits) / static_cast<f64>(n) : 1.0;
  }
};

struct IterationReport {
  u64 iteration = 0;
  f64 forward_seconds = 0;
  f64 backward_seconds = 0;
  f64 update_seconds = 0;
  u64 params_updated = 0;          ///< simulated params through the optimizer
  u64 sim_bytes_fetched = 0;       ///< update-phase tier reads
  u64 sim_bytes_flushed = 0;       ///< update-phase tier writes
  f64 fetch_seconds = 0;           ///< accumulated per-subgroup fetch time
  f64 flush_seconds = 0;           ///< accumulated per-subgroup flush time
  f64 update_compute_seconds = 0;  ///< accumulated CPU update kernel time
  u32 host_cache_hits = 0;
  u32 subgroups_processed = 0;
  /// Per-priority scheduler activity during the update phase, indexed by
  /// IoPriority (demand-prefetch, grad-deposit, lazy-flush, checkpoint).
  std::array<IoClassCounters, kIoPriorityCount> io_classes{};
  u64 io_coalesced_batches = 0;  ///< small-transfer batches merged
  u64 io_max_queue_depth = 0;    ///< channel-queue high-water mark so far

  // Update-graph executor counters, set by the offloading engines from
  // GraphExecutor::Stats under both execution shapes. With no pool (the
  // "linear" shape) steals are always 0 and idle time is the caller's.
  u64 graph_frontier_high_water = 0;  ///< widest ready frontier seen
  u64 graph_tasks_stolen = 0;         ///< cross-deque pool steals
  /// Real seconds the executing threads spent parked with no ready node:
  /// pool workers, or the calling thread waiting on in-flight IO.
  f64 graph_executor_idle_seconds = 0;

  // Staging-pool counters (delta of BufferPool::Stats over the update
  // phase). pool_heap_fallbacks is the alloc-churn metric the smoke gate
  // pins at zero: a steady-state iteration must serve every transient
  // I/O-path buffer from the slab.
  u64 pool_acquires = 0;
  u64 pool_heap_fallbacks = 0;

  // Resilience counters (set by the RecoveryDriver on the first iteration
  // after a recovery; zero on failure-free iterations).
  u32 recoveries = 0;            ///< recoveries charged to this iteration
  f64 recovery_seconds = 0;      ///< virtual time spent recovering before it
  u32 lost_work_iterations = 0;  ///< completed iterations rolled back/redone
  u64 io_cancelled_on_failure = 0;  ///< queued requests dropped at node loss

  std::vector<SubgroupTrace> traces;

  /// Per-tenant slices (empty on single-job runs). Merged by tenant id:
  /// additive fields sum, max_iteration_seconds takes the max.
  std::vector<TenantSlice> tenants;

  /// The slice for `tenant`, or nullptr when the report carries none.
  const TenantSlice* tenant_slice(u32 tenant) const;

  /// Fold another report's additive counters (and traces) into this one.
  /// This is the single merge used by the node- and cluster-level report
  /// merges and by average_reports, so no aggregation level can silently
  /// drop a counter again (the bug that zeroed the per-priority I/O
  /// telemetry at cluster scope). Phase walls are *not* touched — each
  /// aggregation level combines those per its own semantics (max across
  /// parallel workers/nodes, mean across iterations).
  void accumulate_counters(const IterationReport& r);

  f64 iteration_seconds() const {
    return forward_seconds + backward_seconds + update_seconds;
  }

  /// Millions of parameters updated per second of update phase (Fig. 8/12).
  f64 update_throughput_mparams() const {
    return update_seconds > 0
        ? static_cast<f64>(params_updated) / 1e6 / update_seconds
        : 0;
  }

  /// Effective I/O throughput per the paper's definition (§4.3):
  /// 2 * subgroup_bytes / (read_time + write_time), averaged over subgroups.
  /// Cache hits transfer nothing and are excluded, matching how the paper's
  /// counter only sees issued I/O.
  f64 effective_io_throughput() const;

  /// Fraction of the update phase spent waiting on tier I/O (Fig. 3).
  f64 update_io_fraction() const {
    const f64 io = fetch_seconds + flush_seconds;
    const f64 denom = io + update_compute_seconds;
    return denom > 0 ? io / denom : 0;
  }
};

/// Average a set of reports field-wise (warmup exclusion is the caller's
/// job, as in the paper's "first 2 of 10 iterations are warmups").
IterationReport average_reports(const std::vector<IterationReport>& reports);

}  // namespace mlpo
