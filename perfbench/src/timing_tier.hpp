// A StorageTier that forwards every call to an inner tier and times each
// read and write from the outside: call to completion, in real seconds,
// for synchronous and asynchronous transfers alike. This is how the
// benchmark measures the storage backend's own cost beneath the scheduler
// without touching the library. Untimed inspection (peek, exists, ...)
// passes straight through.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tiers/storage_tier.hpp"
#include "trace.hpp"
#include "util/mutex.hpp"

namespace perfbench {

class TimingTier final : public mlpo::StorageTier {
 public:
  /// Counters since the last reset(). Times are real seconds.
  struct Totals {
    u64 reads = 0;
    u64 writes = 0;
    u64 errors = 0;
    u64 real_bytes = 0;
    f64 read_seconds = 0;
    f64 write_seconds = 0;
    std::vector<f64> read_us;   ///< per-read latency
    std::vector<f64> write_us;  ///< per-write latency
  };

  TimingTier(std::shared_ptr<mlpo::StorageTier> inner, Tracer* tracer);

  const std::string& name() const override { return inner_->name(); }
  void write(const std::string& key, std::span<const mlpo::u8> data,
             u64 sim_bytes = 0) override;
  void read(const std::string& key, std::span<mlpo::u8> out,
            u64 sim_bytes = 0) override;
  bool exists(const std::string& key) const override {
    return inner_->exists(key);
  }
  u64 object_size(const std::string& key) const override {
    return inner_->object_size(key);
  }
  void erase(const std::string& key) override { inner_->erase(key); }
  void peek(const std::string& key, std::span<mlpo::u8> out) override {
    inner_->peek(key, out);
  }
  f64 read_bandwidth() const override { return inner_->read_bandwidth(); }
  f64 write_bandwidth() const override { return inner_->write_bandwidth(); }
  bool persistent() const override { return inner_->persistent(); }
  bool supports_async() const override { return inner_->supports_async(); }
  void write_async(const std::string& key, std::span<const mlpo::u8> data,
                   u64 sim_bytes, AsyncDone done) override;
  void read_async(const std::string& key, std::span<mlpo::u8> out,
                  u64 sim_bytes, AsyncDone done) override;

  mlpo::StorageTier& inner() { return *inner_; }

  Totals totals() const;
  void reset();

 private:
  void record(bool is_write, u64 bytes, f64 seconds, bool failed);

  Tracer* tracer_;
  mutable mlpo::Mutex mutex_;
  Totals totals_ MLPO_GUARDED_BY(mutex_);
  /// Declared last so it is destroyed first: its backend drains in-flight
  /// transfers, whose completions still record into totals_.
  std::shared_ptr<mlpo::StorageTier> inner_;
};

}  // namespace perfbench
