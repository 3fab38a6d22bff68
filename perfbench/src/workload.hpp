// The four benchmark workloads and the measurement helpers they share.
// Every number is taken from outside the library: wall and SimClock time
// around public calls, and the public counters the library keeps
// (IterationReport, IoScheduler::stats(), TierStats, BufferPool::Stats,
// PlacementPolicy::bandwidths()).
#pragma once

#include <array>
#include <chrono>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "io/io_scheduler.hpp"
#include "report.hpp"
#include "telemetry/iteration_report.hpp"
#include "train/adam.hpp"
#include "train/grad_source.hpp"
#include "train/sharding.hpp"
#include "trace.hpp"

namespace mlpo {
class Engine;
class VirtualTier;
}  // namespace mlpo

namespace perfbench {

struct RunOptions {
  std::string workload;
  u64 seed = 0;
  f64 seconds = 10;
  bool trace = false;
  /// Scratch root for storage objects and traces (inside the checkout).
  std::filesystem::path out_dir;
};

/// Set-up runs at least kSetupMinRepeats times and until kSetupMinSeconds
/// of set-up time have accumulated; setup_s is the median, so a cold first
/// set-up (page faults, allocator growth) does not set the figure and a
/// millisecond-scale set-up still gets enough samples.
inline constexpr std::size_t kSetupMinRepeats = 5;
inline constexpr f64 kSetupMinSeconds = 2.0;
/// Iterations discarded before measuring (the paper's methodology).
inline constexpr mlpo::u32 kWarmupIterations = 2;

Outcome run_mlpo_40b(const RunOptions& opts, Tracer& tracer);
Outcome run_zero3_40b(const RunOptions& opts, Tracer& tracer);
Outcome run_uring_real(const RunOptions& opts, Tracer& tracer);
Outcome run_tenancy_3to1(const RunOptions& opts, Tracer& tracer);

// ---------------------------------------------------------------------------
// Shared helpers (common.cpp)

using SteadyClock = std::chrono::steady_clock;
f64 seconds_since(SteadyClock::time_point start);

/// Calls `setup_once` by the rule above and returns the median of the
/// seconds it reports. `setup_once` tears down the previous stack untimed,
/// then times building and initializing a new one.
f64 repeated_setup_seconds(const std::function<f64()>& setup_once);

/// Peak resident set of this process so far, in MB (getrusage).
f64 peak_rss_mb();

/// IoScheduler counters summed over one or more schedulers.
struct IoSnapshot {
  std::array<mlpo::IoScheduler::PriorityStats, mlpo::kIoPriorityCount> cls{};
  u64 coalesced_batches = 0;
  u64 max_queue_depth = 0;  ///< high-water mark: max, never differenced

  void add(const mlpo::IoScheduler::Stats& s);
  IoSnapshot since(const IoSnapshot& earlier) const;
  u64 submitted() const;
  u64 failed_or_cancelled() const;
};

/// Plain copy of a tier's atomic TierStats (simulated bytes, virtual s).
struct TierSnapshot {
  u64 bytes_read = 0;
  u64 bytes_written = 0;
  f64 read_seconds = 0;
  f64 write_seconds = 0;

  static TierSnapshot of(const mlpo::StorageTier& tier);
  TierSnapshot since(const TierSnapshot& earlier) const;
  TierSnapshot& operator+=(const TierSnapshot& other);
  f64 read_gbps() const;
  f64 write_gbps() const;
  u64 bytes() const { return bytes_read + bytes_written; }
};

/// Final state checksum of a host-only cpu_only engine per layout, run for
/// `iterations` one-micro-step iterations (iteration k deposits gradients
/// for sample k on every subgroup, then updates) with gradients from
/// `grads` — the same schedule the workloads drive. Summed over layouts
/// like cluster_state_checksum.
u64 reference_checksum(const std::vector<mlpo::ShardLayout>& layouts,
                       u64 elem_scale, const mlpo::AdamConfig& adam,
                       const mlpo::GradSource& grads, u64 iterations);

/// Engine-placement bandwidth estimate error: mean over the offload
/// engines and their bound paths of |EMA - nominal| / nominal, in %.
f64 bw_estimate_err_pct(const std::vector<const mlpo::Engine*>& engines,
                        const mlpo::VirtualTier& vtier);

/// "N subgroups per worker, M host-cache slots" for an offload engine.
std::string describe_working_set(const mlpo::Engine& engine);

/// iter_s.p50/.tail and update_s.p50 from per-iteration samples; notes the
/// tail's percentile and sample count.
void set_iteration_metrics(Outcome& out, const std::vector<f64>& iter_s,
                           const std::vector<f64>& update_s);

/// core.*, graph.*, util.pool.acquires, runtime.{forward,backward}_s from
/// the measured IterationReports. util.pool.heap_fallbacks is set to the
/// reports' sum; workloads with a whole-run pool counter override it.
void set_report_layers(Outcome& out,
                       const std::vector<mlpo::IterationReport>& reports);

/// io.* (except io.overhead_us_per_req) from a measured-window delta.
void set_io_layers(Outcome& out, const IoSnapshot& window, u64 iterations);

/// Zero every per-layer metric, so each workload only sets the ones its
/// layers produce and the rest read as "bypassed".
void zero_layers(Outcome& out);

/// tenant.*: the slowest tenant's median iteration, all measured
/// iterations per kilosecond of makespan, and min over tenants of
/// serviced-byte share / entitlement. A single job is one tenant.
void set_tenant_metrics(Outcome& out,
                        const std::vector<std::vector<f64>>& tenant_iter_s,
                        f64 makespan, const std::vector<u64>& bytes,
                        const std::vector<u32>& weights);

/// The traced run's extras: kernel ratios at `kernel_elems` per call,
/// trace.overhead_pct (traced over untraced median iteration), the Chrome
/// trace JSON, and a per-span-name self-time summary.
void finish_traced_run(const RunOptions& opts, Tracer& tracer, Outcome& out,
                       u64 kernel_elems, const std::vector<f64>& traced,
                       const std::vector<f64>& untraced);

}  // namespace perfbench
