#include "io/uring_backend.hpp"

#include <fcntl.h>
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "util/env.hpp"
#include "util/key_escape.hpp"

namespace mlpo {

namespace fs = std::filesystem;

namespace {

constexpr u32 kNoneSlot = ~u32{0};
constexpr u64 kStopUserData = ~u64{0};

int sys_io_uring_setup(unsigned entries, io_uring_params* p) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}

int sys_io_uring_enter(int fd, unsigned to_submit, unsigned min_complete,
                       unsigned flags) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, fd, to_submit,
                                    min_complete, flags, nullptr, 0));
}

// The ring head/tail words are plain __u32 in the mmap'd pages; the kernel
// side uses acquire/release ordering on them, so the user side must too.
static_assert(sizeof(std::atomic<u32>) == sizeof(u32) &&
                  std::atomic<u32>::is_always_lock_free,
              "mapped-ring atomics must be layout-compatible with u32");

std::atomic<u32>* ring_u32(void* base, u32 off) {
  return reinterpret_cast<std::atomic<u32>*>(static_cast<u8*>(base) + off);
}

u64 round_up_4k(u64 bytes) { return (bytes + 4095) / 4096 * 4096; }

}  // namespace

bool AsyncFileBackend::kernel_supports_uring() {
  io_uring_params p{};
  const int fd = sys_io_uring_setup(1, &p);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

AsyncFileBackend::AsyncFileBackend(const Options& options)
    : depth_(options.queue_depth == 0 ? 1 : options.queue_depth) {
  const bool forced_off =
      options.force_fallback || env::u32_or("MLPO_NO_URING", 0) != 0;
  if (!forced_off && init_uring(depth_)) {
    slab_.resize(depth_);
    for (u32 i = 0; i < depth_; ++i) {
      slab_[i].next_free = i + 1 < depth_ ? i + 1 : kNoneSlot;
    }
    free_head_ = 0;
    reaper_ = std::thread([this] { reaper_loop(); });
    return;
  }
  const u32 n = options.fallback_workers == 0 ? 1 : options.fallback_workers;
  workers_.reserve(n);
  for (u32 i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void AsyncFileBackend::wait_idle() {
  MutexLock lk(drain_mutex_);
  while (in_flight_.load(std::memory_order_acquire) != 0) drain_cv_.wait(lk);
}

AsyncFileBackend::~AsyncFileBackend() {
  // Wait for every completion callback to have finished before stopping
  // the service threads — callers may capture state they free right after
  // this destructor returns.
  wait_idle();
  if (using_uring()) {
    {
      MutexLock lk(ring_mutex_);
      push_stop_locked();
    }
    reaper_.join();
    teardown_uring();
  } else {
    {
      MutexLock lk(queue_mutex_);
      stopping_ = true;
    }
    queue_cv_.notify_all();
    for (auto& w : workers_) w.join();
  }
}

bool AsyncFileBackend::init_uring(u32 entries) {
  io_uring_params p{};
  ring_fd_ = sys_io_uring_setup(entries, &p);
  if (ring_fd_ < 0) return false;

  sq_ring_bytes_ = p.sq_off.array + p.sq_entries * sizeof(u32);
  cq_ring_bytes_ = p.cq_off.cqes + p.cq_entries * sizeof(io_uring_cqe);
  const bool single_mmap = (p.features & IORING_FEAT_SINGLE_MMAP) != 0;
  if (single_mmap) {
    sq_ring_bytes_ = cq_ring_bytes_ =
        sq_ring_bytes_ > cq_ring_bytes_ ? sq_ring_bytes_ : cq_ring_bytes_;
  }
  sq_ring_ = ::mmap(nullptr, sq_ring_bytes_, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQ_RING);
  if (sq_ring_ == MAP_FAILED) {
    sq_ring_ = nullptr;
    teardown_uring();
    return false;
  }
  if (single_mmap) {
    cq_ring_ = sq_ring_;
  } else {
    cq_ring_ = ::mmap(nullptr, cq_ring_bytes_, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_CQ_RING);
    if (cq_ring_ == MAP_FAILED) {
      cq_ring_ = nullptr;
      teardown_uring();
      return false;
    }
  }
  sqes_bytes_ = p.sq_entries * sizeof(io_uring_sqe);
  sqes_ = ::mmap(nullptr, sqes_bytes_, PROT_READ | PROT_WRITE,
                 MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQES);
  if (sqes_ == MAP_FAILED) {
    sqes_ = nullptr;
    teardown_uring();
    return false;
  }

  sq_head_ = ring_u32(sq_ring_, p.sq_off.head);
  sq_tail_ = ring_u32(sq_ring_, p.sq_off.tail);
  sq_mask_ =
      *reinterpret_cast<u32*>(static_cast<u8*>(sq_ring_) + p.sq_off.ring_mask);
  sq_array_ =
      reinterpret_cast<u32*>(static_cast<u8*>(sq_ring_) + p.sq_off.array);
  cq_head_ = ring_u32(cq_ring_, p.cq_off.head);
  cq_tail_ = ring_u32(cq_ring_, p.cq_off.tail);
  cq_mask_ =
      *reinterpret_cast<u32*>(static_cast<u8*>(cq_ring_) + p.cq_off.ring_mask);
  cqes_ = static_cast<u8*>(cq_ring_) + p.cq_off.cqes;
  return true;
}

void AsyncFileBackend::teardown_uring() {
  if (sqes_ != nullptr) ::munmap(sqes_, sqes_bytes_);
  if (cq_ring_ != nullptr && cq_ring_ != sq_ring_) {
    ::munmap(cq_ring_, cq_ring_bytes_);
  }
  if (sq_ring_ != nullptr) ::munmap(sq_ring_, sq_ring_bytes_);
  sqes_ = nullptr;
  cq_ring_ = nullptr;
  sq_ring_ = nullptr;
  if (ring_fd_ >= 0) ::close(ring_fd_);
  ring_fd_ = -1;
}

void AsyncFileBackend::push_sqe_locked(u32 slot) {
  const Op& op = slab_[slot];
  const u32 tail = sq_tail_->load(std::memory_order_relaxed);
  const u32 idx = tail & sq_mask_;
  auto* sqe = reinterpret_cast<io_uring_sqe*>(static_cast<u8*>(sqes_)) + idx;
  std::memset(sqe, 0, sizeof(*sqe));
  sqe->opcode = op.is_write ? IORING_OP_WRITE : IORING_OP_READ;
  sqe->fd = op.fd;
  sqe->addr = reinterpret_cast<u64>(op.buf + op.transferred);
  sqe->len = static_cast<u32>(op.len - op.transferred);
  sqe->off = op.offset + op.transferred;
  sqe->user_data = slot;
  sq_array_[idx] = idx;
  sq_tail_->store(tail + 1, std::memory_order_release);
  // Non-SQPOLL enter consumes the SQE synchronously, so the ring can never
  // fill while the slab (same capacity) bounds in-flight ops.
  int rc;
  do {
    rc = sys_io_uring_enter(ring_fd_, 1, 0, 0);
  } while (rc < 0 && (errno == EINTR || errno == EAGAIN));
}

void AsyncFileBackend::push_stop_locked() {
  const u32 tail = sq_tail_->load(std::memory_order_relaxed);
  const u32 idx = tail & sq_mask_;
  auto* sqe = reinterpret_cast<io_uring_sqe*>(static_cast<u8*>(sqes_)) + idx;
  std::memset(sqe, 0, sizeof(*sqe));
  sqe->opcode = IORING_OP_NOP;
  sqe->fd = -1;
  sqe->user_data = kStopUserData;
  sq_array_[idx] = idx;
  sq_tail_->store(tail + 1, std::memory_order_release);
  int rc;
  do {
    rc = sys_io_uring_enter(ring_fd_, 1, 0, 0);
  } while (rc < 0 && (errno == EINTR || errno == EAGAIN));
}

void AsyncFileBackend::reaper_loop() {
  for (;;) {
    const int rc = sys_io_uring_enter(ring_fd_, 0, 1, IORING_ENTER_GETEVENTS);
    if (rc < 0 && errno != EINTR && errno != EAGAIN && errno != EBUSY) {
      // Ring fd gone bad: nothing sane left to do; in-flight ops would
      // hang, but this only happens if the process state is corrupt.
      return;
    }
    u32 head = cq_head_->load(std::memory_order_relaxed);
    const u32 tail = cq_tail_->load(std::memory_order_acquire);
    bool stop = false;
    while (head != tail) {
      const auto* cqe =
          reinterpret_cast<const io_uring_cqe*>(cqes_) + (head & cq_mask_);
      const u64 user_data = cqe->user_data;
      const i64 res = cqe->res;
      ++head;
      cq_head_->store(head, std::memory_order_release);
      if (user_data == kStopUserData) {
        stop = true;
        continue;
      }
      const u32 slot = static_cast<u32>(user_data);
      bool resubmitted = false;
      int error = 0;
      {
        MutexLock lk(ring_mutex_);
        Op& op = slab_[slot];
        if (res < 0) {
          if (res == -EINTR || res == -EAGAIN) {
            push_sqe_locked(slot);
            resubmitted = true;
          } else {
            error = static_cast<int>(-res);
          }
        } else {
          op.transferred += static_cast<u64>(res);
          const u64 need = op.min_len == 0 ? op.len : op.min_len;
          if (op.transferred >= need) {
            error = 0;  // full transfer, or the optional O_DIRECT tail
          } else if (res == 0) {
            error = EIO;  // EOF before the required byte count
          } else {
            push_sqe_locked(slot);
            resubmitted = true;
          }
        }
      }
      if (!resubmitted) finish_slot(slot, error);
    }
    if (stop) return;
  }
}

void AsyncFileBackend::finish_slot(u32 slot, int error) {
  Done done;
  u64 transferred = 0;
  {
    MutexLock lk(ring_mutex_);
    Op& op = slab_[slot];
    done = std::move(op.done);
    transferred = op.transferred;
    op = Op{};
    op.next_free = free_head_;
    free_head_ = slot;
  }
  slot_free_.notify_one();
  done(error, transferred);
  {
    MutexLock lk(drain_mutex_);
    in_flight_.fetch_sub(1, std::memory_order_release);
  }
  drain_cv_.notify_all();
}

int AsyncFileBackend::run_sync(Op& op) {
  const u64 need = op.min_len == 0 ? op.len : op.min_len;
  while (op.transferred < op.len) {
    if (op.transferred >= need) break;
    const u64 chunk = op.len - op.transferred;
    const ssize_t n =
        op.is_write
            ? ::pwrite(op.fd, op.buf + op.transferred, chunk,
                       static_cast<off_t>(op.offset + op.transferred))
            : ::pread(op.fd, op.buf + op.transferred, chunk,
                      static_cast<off_t>(op.offset + op.transferred));
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    if (n == 0) return op.transferred >= need ? 0 : EIO;
    op.transferred += static_cast<u64>(n);
  }
  return 0;
}

void AsyncFileBackend::worker_loop() {
  for (;;) {
    Op op;
    {
      MutexLock lk(queue_mutex_);
      while (queue_.empty() && !stopping_) queue_cv_.wait(lk);
      if (queue_.empty()) return;  // stopping and fully drained
      op = std::move(queue_.front());
      queue_.pop_front();
      queue_cv_.notify_all();  // a submitter may be waiting on the bound
    }
    const int error = run_sync(op);
    op.done(error, op.transferred);
    {
      MutexLock lk(drain_mutex_);
      in_flight_.fetch_sub(1, std::memory_order_release);
    }
    drain_cv_.notify_all();
  }
}

void AsyncFileBackend::submit(Op op) {
  {
    MutexLock lk(drain_mutex_);
    in_flight_.fetch_add(1, std::memory_order_release);
  }
  if (using_uring()) {
    MutexLock lk(ring_mutex_);
    while (free_head_ == kNoneSlot) slot_free_.wait(lk);
    const u32 slot = free_head_;
    free_head_ = slab_[slot].next_free;
    slab_[slot] = std::move(op);
    push_sqe_locked(slot);
  } else {
    MutexLock lk(queue_mutex_);
    while (queue_.size() >= depth_ && !stopping_) queue_cv_.wait(lk);
    queue_.push_back(std::move(op));
    queue_cv_.notify_all();
  }
}

void AsyncFileBackend::read(int fd, void* buf, u64 len, u64 offset, Done done,
                            u64 min_len) {
  if (len == 0) {
    done(0, 0);
    return;
  }
  Op op;
  op.fd = fd;
  op.is_write = false;
  op.buf = static_cast<u8*>(buf);
  op.len = len;
  op.min_len = min_len;
  op.offset = offset;
  op.done = std::move(done);
  submit(std::move(op));
}

void AsyncFileBackend::write(int fd, const void* buf, u64 len, u64 offset,
                             Done done) {
  if (len == 0) {
    done(0, 0);
    return;
  }
  Op op;
  op.fd = fd;
  op.is_write = true;
  op.buf = static_cast<u8*>(const_cast<void*>(buf));
  op.len = len;
  op.offset = offset;
  op.done = std::move(done);
  submit(std::move(op));
}

// ---------------------------------------------------------------------------
// UringFileTier

UringFileTier::UringFileTier(std::string name, fs::path root, Options options)
    : name_(std::move(name)), root_(std::move(root)), options_(options),
      bounce_(BufferPool::Options{
          options.bounce_slab_bytes < kAlign ? kAlign
                                             : options.bounce_slab_bytes,
          kAlign, /*pin=*/false}),
      backend_(std::make_unique<AsyncFileBackend>(AsyncFileBackend::Options{
          options.queue_depth, options.fallback_workers,
          options.force_fallback})) {
  fs::create_directories(root_);
}

UringFileTier::~UringFileTier() {
  // Drain in-flight completions (which may hold bounce leases) before any
  // other member goes away.
  backend_.reset();
}

fs::path UringFileTier::path_for(const std::string& key) const {
  return root_ / escape_key(key);
}

int UringFileTier::open_for(const fs::path& path, bool write,
                            bool* direct_out) const {
  const int base_flags = write ? (O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC)
                               : (O_RDONLY | O_CLOEXEC);
  if (options_.direct) {
    const int fd = ::open(path.c_str(), base_flags | O_DIRECT, 0644);
    if (fd >= 0) {
      *direct_out = true;
      return fd;
    }
    // tmpfs (and some network filesystems) reject O_DIRECT with EINVAL;
    // degrade per-file rather than failing the transfer.
    if (errno != EINVAL) return -1;
  }
  *direct_out = false;
  return ::open(path.c_str(), base_flags, 0644);
}

void UringFileTier::write_async(const std::string& key,
                                std::span<const u8> data, u64 sim_bytes,
                                AsyncDone done) {
  auto scope = std::make_shared<TierStats::TransferScope>(stats_);
  const fs::path path = path_for(key);
  const fs::path tmp =
      path.string() + ".tmp." + std::to_string(tmp_seq_.fetch_add(1));
  bool direct = false;
  const int fd = open_for(tmp, /*write=*/true, &direct);
  if (fd < 0) {
    done(std::make_exception_ptr(std::runtime_error(
        "UringFileTier '" + name_ + "': cannot open " + tmp.string())));
    return;
  }
  const u64 size = data.size();
  const u64 counted = sim_bytes != 0 ? sim_bytes : size;

  std::shared_ptr<BufferPool::Lease> bounce;
  const u8* src = data.data();
  u64 io_len = size;
  if (direct && size > 0) {
    // O_DIRECT alignment contract: 4096-aligned buffer AND length. Write
    // the block-rounded length from a pooled bounce buffer, then trim the
    // file back to the real object size.
    io_len = round_up_4k(size);
    bounce = std::make_shared<BufferPool::Lease>(bounce_.acquire(io_len));
    std::memcpy(bounce->data(), data.data(), size);
    if (io_len > size) std::memset(bounce->data() + size, 0, io_len - size);
    src = bounce->data();
  }
  const bool trim = io_len != size;

  auto completion = [this, scope, bounce, fd, tmp, path, size, counted, trim,
                     done](int error, u64) {
    if (error == 0 && trim && ::ftruncate(fd, static_cast<off_t>(size)) != 0) {
      error = errno;
    }
    if (::close(fd) != 0 && error == 0) error = errno;
    if (error != 0) {
      std::error_code ec;
      fs::remove(tmp, ec);
      done(std::make_exception_ptr(std::runtime_error(
          "UringFileTier '" + name_ + "': write failed for " + tmp.string() +
          ": " + std::strerror(error))));
      return;
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
      done(std::make_exception_ptr(std::runtime_error(
          "UringFileTier '" + name_ + "': rename failed for " + path.string() +
          ": " + ec.message())));
      return;
    }
    stats_.writes.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes_written.fetch_add(counted, std::memory_order_relaxed);
    done(nullptr);
  };

  if (io_len == 0) {
    completion(0, 0);  // empty object: create + rename, no transfer
    return;
  }
  backend_->write(fd, src, io_len, 0, std::move(completion));
}

void UringFileTier::read_async(const std::string& key, std::span<u8> out,
                               u64 sim_bytes, AsyncDone done) {
  auto scope = std::make_shared<TierStats::TransferScope>(stats_);
  const fs::path path = path_for(key);
  bool direct = false;
  const int fd = open_for(path, /*write=*/false, &direct);
  if (fd < 0) {
    done(std::make_exception_ptr(
        std::out_of_range("UringFileTier '" + name_ + "': no object " + key)));
    return;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    done(std::make_exception_ptr(
        std::runtime_error("UringFileTier '" + name_ + "': fstat " + key)));
    return;
  }
  const u64 size = static_cast<u64>(st.st_size);
  if (size != out.size()) {
    ::close(fd);
    done(std::make_exception_ptr(std::invalid_argument(
        "UringFileTier '" + name_ + "': size mismatch for " + key)));
    return;
  }
  const u64 counted = sim_bytes != 0 ? sim_bytes : size;
  if (size == 0) {
    ::close(fd);
    stats_.reads.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes_read.fetch_add(counted, std::memory_order_relaxed);
    done(nullptr);
    return;
  }

  std::shared_ptr<BufferPool::Lease> bounce;
  u8* dst = out.data();
  u64 io_len = size;
  if (direct) {
    // Read the block-rounded length into a pooled bounce buffer; EOF
    // legitimately truncates the tail (min_len = real size).
    io_len = round_up_4k(size);
    bounce = std::make_shared<BufferPool::Lease>(bounce_.acquire(io_len));
    dst = bounce->data();
  }

  auto completion = [this, scope, bounce, fd, out, size, counted,
                     done](int error, u64) {
    ::close(fd);
    if (error != 0) {
      done(std::make_exception_ptr(std::runtime_error(
          "UringFileTier '" + name_ + "': read failed: " +
          std::strerror(error))));
      return;
    }
    if (bounce) std::memcpy(out.data(), bounce->data(), size);
    stats_.reads.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes_read.fetch_add(counted, std::memory_order_relaxed);
    done(nullptr);
  };

  backend_->read(fd, dst, io_len, 0, std::move(completion), /*min_len=*/size);
}

namespace {

/// Shared latch turning the async API back into the blocking StorageTier
/// contract (used by the sync read()/write() entry points).
struct SyncLatch {
  Mutex m;
  CondVar cv;
  bool fired = false;
  std::exception_ptr error;
};

void wait_latch(const std::shared_ptr<SyncLatch>& latch) {
  MutexLock lk(latch->m);
  while (!latch->fired) latch->cv.wait(lk);
  if (latch->error) std::rethrow_exception(latch->error);
}

StorageTier::AsyncDone fire_latch(const std::shared_ptr<SyncLatch>& latch) {
  return [latch](std::exception_ptr error) {
    {
      MutexLock lk(latch->m);
      latch->fired = true;
      latch->error = std::move(error);
    }
    latch->cv.notify_all();
  };
}

}  // namespace

void UringFileTier::write(const std::string& key, std::span<const u8> data,
                          u64 sim_bytes) {
  auto latch = std::make_shared<SyncLatch>();
  write_async(key, data, sim_bytes, fire_latch(latch));
  wait_latch(latch);
}

void UringFileTier::read(const std::string& key, std::span<u8> out,
                         u64 sim_bytes) {
  auto latch = std::make_shared<SyncLatch>();
  read_async(key, out, sim_bytes, fire_latch(latch));
  wait_latch(latch);
}

bool UringFileTier::exists(const std::string& key) const {
  return fs::exists(path_for(key));
}

u64 UringFileTier::object_size(const std::string& key) const {
  std::error_code ec;
  const auto size = fs::file_size(path_for(key), ec);
  if (ec) {
    throw std::out_of_range("UringFileTier '" + name_ + "': no object " + key);
  }
  return size;
}

void UringFileTier::erase(const std::string& key) {
  std::error_code ec;
  fs::remove(path_for(key), ec);
}

}  // namespace mlpo
