#include "timing_tier.hpp"

#include <chrono>
#include <utility>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

f64 seconds_since(Clock::time_point start) {
  return std::chrono::duration<f64>(Clock::now() - start).count();
}

}  // namespace

TimingTier::TimingTier(std::shared_ptr<mlpo::StorageTier> inner,
                       Tracer* tracer)
    : tracer_(tracer), inner_(std::move(inner)) {}

void TimingTier::record(bool is_write, u64 bytes, f64 seconds, bool failed) {
  mlpo::MutexLock lock(mutex_);
  if (failed) {
    ++totals_.errors;
    return;
  }
  totals_.real_bytes += bytes;
  if (is_write) {
    ++totals_.writes;
    totals_.write_seconds += seconds;
    totals_.write_us.push_back(seconds * 1e6);
  } else {
    ++totals_.reads;
    totals_.read_seconds += seconds;
    totals_.read_us.push_back(seconds * 1e6);
  }
}

void TimingTier::write(const std::string& key, std::span<const mlpo::u8> data,
                       u64 sim_bytes) {
  Tracer::Span span = tracer_->begin("tier.write", "tiers");
  const auto start = Clock::now();
  try {
    inner_->write(key, data, sim_bytes);
  } catch (...) {
    record(true, 0, 0, true);
    throw;
  }
  record(true, data.size(), seconds_since(start), false);
}

void TimingTier::read(const std::string& key, std::span<mlpo::u8> out,
                      u64 sim_bytes) {
  Tracer::Span span = tracer_->begin("tier.read", "tiers");
  const auto start = Clock::now();
  try {
    inner_->read(key, out, sim_bytes);
  } catch (...) {
    record(false, 0, 0, true);
    throw;
  }
  record(false, out.size(), seconds_since(start), false);
}

void TimingTier::write_async(const std::string& key,
                             std::span<const mlpo::u8> data, u64 sim_bytes,
                             AsyncDone done) {
  auto span = std::make_shared<Tracer::Span>(
      tracer_->begin_async("tier.write_async", "tiers"));
  const auto start = Clock::now();
  const u64 bytes = data.size();
  try {
    inner_->write_async(
        key, data, sim_bytes,
        [this, start, bytes, span, done = std::move(done)](
            std::exception_ptr error) {
          record(true, bytes, seconds_since(start), error != nullptr);
          span->end();
          done(error);
        });
  } catch (...) {
    record(true, 0, 0, true);
    throw;
  }
}

void TimingTier::read_async(const std::string& key, std::span<mlpo::u8> out,
                            u64 sim_bytes, AsyncDone done) {
  auto span = std::make_shared<Tracer::Span>(
      tracer_->begin_async("tier.read_async", "tiers"));
  const auto start = Clock::now();
  const u64 bytes = out.size();
  try {
    inner_->read_async(
        key, out, sim_bytes,
        [this, start, bytes, span, done = std::move(done)](
            std::exception_ptr error) {
          record(false, bytes, seconds_since(start), error != nullptr);
          span->end();
          done(error);
        });
  } catch (...) {
    record(false, 0, 0, true);
    throw;
  }
}

TimingTier::Totals TimingTier::totals() const {
  mlpo::MutexLock lock(mutex_);
  return totals_;
}

void TimingTier::reset() {
  mlpo::MutexLock lock(mutex_);
  totals_ = Totals{};
}

}  // namespace perfbench
