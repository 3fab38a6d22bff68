// Real asynchronous file I/O: io_uring with a portable worker-pool fallback.
//
// AsyncFileBackend submits positional reads/writes on raw file descriptors
// and invokes a completion callback from an internal thread when the
// transfer genuinely finishes — these are the real settle events the
// IoScheduler consumes in place of simulated service times. The io_uring
// path talks to the kernel directly through the raw syscalls
// (io_uring_setup / io_uring_enter and the mmap'd SQ/CQ rings); there is
// deliberately no liburing dependency. When the kernel refuses io_uring
// (ENOSYS, seccomp) or MLPO_NO_URING=1 is set, a pread/pwrite worker pool
// provides identical semantics, so callers never branch on the mechanism.
//
// Control blocks live in a fixed slab sized to the queue depth (uring
// path): submission is O(1) and allocation-free, and a full slab applies
// backpressure by blocking submit — mirroring BufferPool's bounded-budget
// discipline.
//
// UringFileTier exposes the backend as a StorageTier (config kind
// "uring_file"): one file per object under a root directory, collision-free
// key escaping (util/key_escape), optional O_DIRECT honouring the 4096-byte
// alignment contract through pooled bounce buffers, and tmp-file + rename
// atomic replacement exactly like FileTier — the two backends are
// file-format interchangeable.
#pragma once

#include <atomic>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "tiers/storage_tier.hpp"
#include "util/aligned_buffer.hpp"
#include "util/common.hpp"
#include "util/mutex.hpp"

namespace mlpo {

class AsyncFileBackend {
 public:
  struct Options {
    /// In-flight op budget (io_uring SQ depth / fallback queue bound).
    u32 queue_depth = 64;
    /// Threads servicing the pread/pwrite fallback.
    u32 fallback_workers = 2;
    /// Skip io_uring even when the kernel offers it (tests exercise both
    /// mechanisms; MLPO_NO_URING=1 sets this for a whole run).
    bool force_fallback = false;
  };

  /// Completion callback: `error` is an errno value (0 on success),
  /// `transferred` the bytes actually moved. Runs on an internal thread;
  /// must not block on this backend.
  using Done = std::function<void(int error, u64 transferred)>;

  /// One-shot probe: does this kernel accept io_uring_setup?
  static bool kernel_supports_uring();

  explicit AsyncFileBackend(const Options& options);
  /// Waits for every in-flight op to complete, then joins threads.
  ~AsyncFileBackend();

  AsyncFileBackend(const AsyncFileBackend&) = delete;
  AsyncFileBackend& operator=(const AsyncFileBackend&) = delete;

  bool using_uring() const { return ring_fd_ >= 0; }
  u32 queue_depth() const { return depth_; }
  u64 in_flight() const { return in_flight_.load(std::memory_order_acquire); }

  /// Block until no op is in flight. An op leaves in_flight() only after
  /// its completion callback has returned, so a caller that has merely
  /// observed every callback fire must wait here before expecting 0.
  void wait_idle();

  /// Positional read of `len` bytes at `offset`. Short transfers resubmit
  /// internally; completion reports the full length or an errno. A nonzero
  /// `min_len` < len marks the tail as optional — the O_DIRECT case of
  /// reading a block-rounded length from a file whose real size is
  /// unaligned, where EOF legitimately truncates the transfer.
  void read(int fd, void* buf, u64 len, u64 offset, Done done,
            u64 min_len = 0);
  void write(int fd, const void* buf, u64 len, u64 offset, Done done);

 private:
  struct Op {
    int fd = -1;
    bool is_write = false;
    u8* buf = nullptr;
    u64 len = 0;
    u64 min_len = 0;
    u64 offset = 0;
    u64 transferred = 0;
    Done done;
    u32 next_free = 0;
  };

  void submit(Op op);

  // --- io_uring path ---
  bool init_uring(u32 entries);
  void teardown_uring();
  /// Writes one SQE for slab slot `slot` covering its remaining range and
  /// submits it; ring_mutex_ must be held.
  void push_sqe_locked(u32 slot) MLPO_REQUIRES(ring_mutex_);
  void push_stop_locked() MLPO_REQUIRES(ring_mutex_);
  void reaper_loop();
  /// Terminal completion: recycle the slot and fire the callback.
  void finish_slot(u32 slot, int error);

  // --- fallback path ---
  void worker_loop();
  /// Looped pread/pwrite honouring len/min_len; returns errno or 0.
  static int run_sync(Op& op);

  u32 depth_;

  // Ring state (valid when ring_fd_ >= 0).
  int ring_fd_ = -1;
  void* sq_ring_ = nullptr;
  std::size_t sq_ring_bytes_ = 0;
  void* cq_ring_ = nullptr;
  std::size_t cq_ring_bytes_ = 0;
  void* sqes_ = nullptr;
  std::size_t sqes_bytes_ = 0;
  // Raw pointers into the mapped rings.
  std::atomic<u32>* sq_head_ = nullptr;
  std::atomic<u32>* sq_tail_ = nullptr;
  u32 sq_mask_ = 0;
  u32* sq_array_ = nullptr;
  std::atomic<u32>* cq_head_ = nullptr;
  std::atomic<u32>* cq_tail_ = nullptr;
  u32 cq_mask_ = 0;
  void* cqes_ = nullptr;

  Mutex ring_mutex_;
  std::vector<Op> slab_ MLPO_GUARDED_BY(ring_mutex_);
  u32 free_head_ MLPO_GUARDED_BY(ring_mutex_) = 0;
  CondVar slot_free_;
  std::thread reaper_;

  // Fallback state.
  Mutex queue_mutex_;
  CondVar queue_cv_;
  std::deque<Op> queue_ MLPO_GUARDED_BY(queue_mutex_);
  bool stopping_ MLPO_GUARDED_BY(queue_mutex_) = false;
  std::vector<std::thread> workers_;

  std::atomic<u64> in_flight_{0};
  Mutex drain_mutex_;
  CondVar drain_cv_;
};

/// File-per-object StorageTier over AsyncFileBackend. Selectable from
/// config JSON as kind "uring_file".
class UringFileTier : public StorageTier {
 public:
  struct Options {
    /// Nominal bandwidths seed the PerfModel exactly like the throttled
    /// tiers' specs do; measured behaviour takes over via the EMA.
    f64 read_bw = 1e9;
    f64 write_bw = 1e9;
    /// O_DIRECT transfers (page-cache bypass). Falls back per-file when
    /// the filesystem refuses (tmpfs returns EINVAL).
    bool direct = false;
    u32 queue_depth = 64;
    u32 fallback_workers = 2;
    bool force_fallback = false;
    /// Bounce-buffer slab for O_DIRECT alignment (suballocated, pooled).
    std::size_t bounce_slab_bytes = std::size_t{8} << 20;
  };

  UringFileTier(std::string name, std::filesystem::path root,
                Options options);
  UringFileTier(std::string name, std::filesystem::path root)
      : UringFileTier(std::move(name), std::move(root), Options()) {}
  ~UringFileTier() override;

  const std::string& name() const override { return name_; }
  void write(const std::string& key, std::span<const u8> data,
             u64 sim_bytes = 0) override;
  void read(const std::string& key, std::span<u8> out,
            u64 sim_bytes = 0) override;
  bool exists(const std::string& key) const override;
  u64 object_size(const std::string& key) const override;
  void erase(const std::string& key) override;
  f64 read_bandwidth() const override { return options_.read_bw; }
  f64 write_bandwidth() const override { return options_.write_bw; }
  bool persistent() const override { return true; }

  bool supports_async() const override { return true; }
  void write_async(const std::string& key, std::span<const u8> data,
                   u64 sim_bytes, AsyncDone done) override;
  void read_async(const std::string& key, std::span<u8> out, u64 sim_bytes,
                  AsyncDone done) override;

  const std::filesystem::path& root() const { return root_; }
  bool using_uring() const { return backend_->using_uring(); }
  /// Bounce-pool telemetry (alloc-churn accounting).
  BufferPool::Stats bounce_stats() const { return bounce_.stats(); }

 private:
  static constexpr std::size_t kAlign = 4096;

  std::filesystem::path path_for(const std::string& key) const;
  /// Open honouring options_.direct with per-file EINVAL fallback; returns
  /// fd (or -1 with errno set) and whether O_DIRECT actually stuck.
  int open_for(const std::filesystem::path& path, bool write,
               bool* direct_out) const;

  std::string name_;
  std::filesystem::path root_;
  Options options_;
  // bounce_ is declared before backend_ so the backend (whose destructor
  // drains every in-flight op, including completions still holding bounce
  // leases) is destroyed first.
  mutable BufferPool bounce_;
  std::unique_ptr<AsyncFileBackend> backend_;
  std::atomic<u64> tmp_seq_{0};
};

}  // namespace mlpo
