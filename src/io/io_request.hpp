// I/O request vocabulary for the priority-aware scheduler (paper §3.2/§3.5).
//
// Every piece of tier traffic in the system — demand prefetches of subgroup
// state, gradient deposits over the D2H link, lazy flushes of updated
// subgroups, checkpoint writes — is expressed as one IoRequest and submitted
// to the IoScheduler. The request carries everything the scheduler needs to
// route (target + path hint), order (priority class), merge (sim_bytes for
// small-transfer coalescing), and abandon (cancellation token) the
// operation, plus a completion callback through which observed bandwidth
// feeds back into the PerfModel's EMA.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

#include "util/common.hpp"

namespace mlpo {

class IoChannel;
class StorageTier;

/// Transfer direction. Reads and writes of one path dispatch on separate
/// channels (separate TierLocks), preserving device duplex.
enum class IoOp { kRead, kWrite };

/// Scheduling classes, strongest first. Within a channel the scheduler
/// always dispatches the lowest-numbered non-empty class; ties dispatch
/// FIFO. The ordering encodes the paper's overlap argument: a demand
/// prefetch stalls the update pipeline *now*, a gradient deposit stalls the
/// next backward barrier, a lazy flush only has to finish before its host
/// buffer is reused, and a checkpoint merely has to finish eventually.
enum class IoPriority : u8 {
  kDemandPrefetch = 0,  ///< update pipeline is (about to be) blocked on this
  kGradDeposit = 1,     ///< backward-phase gradient traffic
  kLazyFlush = 2,       ///< write-back of updated subgroup state
  kCheckpoint = 3,      ///< checkpoint / restore / bulk placement traffic
};

inline constexpr std::size_t kIoPriorityCount = 4;

const char* io_priority_name(IoPriority priority);

/// Where a request is headed. Tier-path requests carry an optional path
/// hint; link requests model PCIe D2H/H2D time; external requests target a
/// StorageTier outside the VirtualTier (e.g. a checkpoint store).
enum class IoTarget : u8 {
  kTierPath = 0,
  kD2HLink,
  kH2DLink,
  kExternal,
};

/// Cooperative cancellation handle. Copyable; all copies share one flag.
/// Cancelling only affects requests still queued — once dispatched, a
/// request runs to completion (mirroring how a submitted NVMe command
/// cannot be recalled).
class CancellationToken {
 public:
  CancellationToken() : state_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() { state_->store(true, std::memory_order_release); }
  bool cancelled() const { return state_->load(std::memory_order_acquire); }

 private:
  std::shared_ptr<std::atomic<bool>> state_;
};

/// Thrown through the future of a request that was cancelled while queued.
class IoCancelled : public std::runtime_error {
 public:
  explicit IoCancelled(const std::string& what) : std::runtime_error(what) {}
};

/// Completion record handed to IoRequest::on_complete (and aggregated into
/// the scheduler's per-priority statistics). All times are virtual seconds.
struct IoResult {
  IoPriority priority = IoPriority::kDemandPrefetch;
  u64 sim_bytes = 0;           ///< simulated bytes actually moved
  f64 queue_wait_seconds = 0;  ///< submit -> dispatch (head-of-line wait)
  f64 service_seconds = 0;     ///< dispatch -> done (includes lock wait)
};

struct IoRequest {
  static constexpr std::size_t kAutoPath = static_cast<std::size_t>(-1);

  IoOp op = IoOp::kWrite;
  IoTarget target = IoTarget::kTierPath;
  std::string key;  ///< object key (tier requests) / label (link requests)

  /// Simple-payload spans: when `work` is empty the scheduler performs the
  /// one keyed transfer itself (`dst` for reads, `src` for writes; link
  /// requests just charge `sim_bytes` of link time). The memory must stay
  /// alive until the returned future resolves.
  std::span<const u8> src{};
  std::span<u8> dst{};

  /// Simulated transfer size: drives link/tier time charging for simple
  /// requests and the small-transfer coalescing decision. 0 means "use the
  /// real span size".
  u64 sim_bytes = 0;

  IoPriority priority = IoPriority::kLazyFlush;

  /// Owning tenant (job) of this request. On a shared scheduler the
  /// per-tenant weighted fair-share layer arbitrates *between* tenant ids
  /// before the priority classes order traffic *within* one; cancellation
  /// and fail-stop scoping key on it too. Single-job schedulers leave it 0.
  u32 tenant = 0;

  /// Tier-path requests: VirtualTier path index, or kAutoPath to route by
  /// `key` location (demand reads).
  std::size_t path = kAutoPath;

  /// External requests: the tier to hit (non-owning, must outlive the
  /// request). Ignored for other targets.
  StorageTier* tier = nullptr;

  CancellationToken token{};

  /// Compound operation: runs on the channel's dispatch thread with the
  /// channel's direction lock already held; issue transfers through the
  /// channel only. Returns the simulated bytes moved (for stats and the
  /// bandwidth EMA). When set, the simple-payload spans are ignored.
  /// Use it only for operations that are more than one transfer (fetch +
  /// deserialize, read + erase): it blocks the dispatch thread, so an
  /// async-capable tier runs it at queue depth 1. A plain transfer sets
  /// `src`/`dst` instead and lets the scheduler issue it asynchronously;
  /// a staging buffer behind the span can ride in `on_complete`, which is
  /// destroyed once the request settles on every path.
  std::function<u64(IoChannel&)> work{};

  /// Invoked on the dispatch thread after a successful (non-cancelled,
  /// non-throwing) execution, before the future resolves. This is where
  /// the OffloadEngine feeds PerfModel::observe.
  std::function<void(const IoResult&)> on_complete{};

  /// Invoked exactly once after the future has settled, on *every* path:
  /// success (null exception_ptr), execution failure, cancellation while
  /// queued, and submit-after-shutdown rejection — always after
  /// on_complete. This is the asynchronous completion edge the graph
  /// executor hangs IO nodes on: the node returns immediately after
  /// submitting and completes from here, so no executor worker blocks on a
  /// future and the scheduler sees the whole ready frontier at once. Runs
  /// on the dispatch thread (or the submitting thread for the shutdown
  /// rejection); must not throw.
  std::function<void(std::exception_ptr)> on_settle{};

  // Factories for the common shapes; callers attach spans/work/callbacks
  // to the returned skeleton.

  static IoRequest tier_read(std::string key, u64 sim_bytes,
                             IoPriority priority,
                             std::size_t path_hint = kAutoPath) {
    IoRequest req;
    req.op = IoOp::kRead;
    req.key = std::move(key);
    req.sim_bytes = sim_bytes;
    req.priority = priority;
    req.path = path_hint;
    return req;
  }

  static IoRequest tier_write(std::string key, std::size_t path,
                              u64 sim_bytes, IoPriority priority) {
    IoRequest req;
    req.op = IoOp::kWrite;
    req.key = std::move(key);
    req.sim_bytes = sim_bytes;
    req.priority = priority;
    req.path = path;
    return req;
  }

  static IoRequest external_op(IoOp op, StorageTier* tier, std::string key,
                               u64 sim_bytes, IoPriority priority) {
    IoRequest req;
    req.op = op;
    req.target = IoTarget::kExternal;
    req.tier = tier;
    req.key = std::move(key);
    req.sim_bytes = sim_bytes;
    req.priority = priority;
    return req;
  }

  static IoRequest link_transfer(IoTarget link, std::string label,
                                 u64 sim_bytes, IoPriority priority) {
    IoRequest req;
    req.target = link;
    req.key = std::move(label);
    req.sim_bytes = sim_bytes;
    req.priority = priority;
    return req;
  }
};

}  // namespace mlpo
