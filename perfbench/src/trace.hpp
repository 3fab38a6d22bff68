// In-memory span tracer for the traced benchmark run.
//
// Spans are recorded only from the benchmark's own files, around the calls
// it makes into the library's layers (initialize, run_iteration, engine
// phases, wrapper-tier reads/writes, kernel calls, JobManager::run). Each
// span carries its name, the layer (module under src/) it enters, its
// parent span, the iteration it belongs to, and both real and virtual
// timestamps. Records stay in memory and are written once, at exit, as
// Chrome trace-event JSON (loadable in Perfetto or chrome://tracing).
//
// Disabled, every entry point is one relaxed atomic load and a branch.
#pragma once

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "util/common.hpp"
#include "util/json.hpp"
#include "util/mutex.hpp"
#include "util/sim_clock.hpp"

namespace perfbench {

using mlpo::f64;
using mlpo::i64;
using mlpo::u32;
using mlpo::u64;

struct SpanRecord {
  std::string name;
  std::string layer;
  u64 id = 0;
  u64 parent = 0;       ///< 0: no parent
  i64 iteration = -1;   ///< -1: outside any iteration
  f64 real_start_us = 0;  ///< steady clock, since the tracer's epoch
  f64 real_end_us = 0;
  f64 virt_start_s = 0;   ///< workload SimClock (0 when none was set)
  f64 virt_end_s = 0;
  u32 thread = 0;
  bool async = false;   ///< began and ended on possibly different threads
};

/// Per-span self time in microseconds: the span's duration minus the part
/// of [start, end] covered by the union of its children's intervals.
/// Parallel to `spans`; children are found through SpanRecord::parent.
std::vector<f64> self_times_us(const std::vector<SpanRecord>& spans);

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Virtual timestamps come from `clock` until it is reset; callers reset
  /// it to nullptr before the clock's owner is destroyed.
  void set_clock(const mlpo::SimClock* clock) {
    clock_.store(clock, std::memory_order_release);
  }
  void set_iteration(i64 iteration) {
    iteration_.store(iteration, std::memory_order_relaxed);
  }

  /// An open span. Scoped use: Span s = tracer.begin(...); ... s.end();
  /// or let the destructor end it. Async use: move it into a completion
  /// callback and end it there.
  class Span {
   public:
    Span() = default;
    Span(Span&& other) noexcept;
    Span& operator=(Span&& other) noexcept;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { end(); }
    void end();

   private:
    friend class Tracer;
    Tracer* tracer_ = nullptr;
    SpanRecord rec_;
    bool scoped_ = false;
  };

  /// Begin a synchronous span nested under this thread's innermost open
  /// span or, on a thread with none open (scheduler dispatch threads,
  /// device completions), under the innermost open span of the thread
  /// that constructed the tracer. Must end on the same thread, innermost
  /// first.
  Span begin(const char* name, const char* layer);
  /// Begin a span that may end on another thread (device completions).
  /// It does not become a parent for later spans.
  Span begin_async(const char* name, const char* layer);

  std::vector<SpanRecord> spans() const;

  /// Chrome trace-event JSON: synchronous spans as complete ("X") events,
  /// async spans as nestable async begin/end ("b"/"e") pairs; ids, parents,
  /// iteration, virtual times and self time ride in "args". `other` lands
  /// in the top-level "otherData" object.
  void write_chrome_json(const std::filesystem::path& path,
                         const std::string& process_name,
                         const mlpo::json::Object& other) const;

 private:
  Span open(const char* name, const char* layer, bool scoped);
  void close(SpanRecord& rec, bool scoped);
  f64 real_now_us() const;
  f64 virt_now() const;

  std::atomic<bool> enabled_{false};
  std::atomic<const mlpo::SimClock*> clock_{nullptr};
  std::atomic<i64> iteration_{-1};
  std::atomic<u64> next_id_{1};
  /// The thread that constructed the tracer (the benchmark's main thread).
  const u32 main_thread_;
  /// The main thread's innermost open span: the parent for spans that
  /// begin on a thread with no open span of its own.
  std::atomic<u64> main_open_{0};
  const std::chrono::steady_clock::time_point epoch_;
  mutable mlpo::Mutex mutex_;
  std::vector<SpanRecord> records_ MLPO_GUARDED_BY(mutex_);
};

}  // namespace perfbench
