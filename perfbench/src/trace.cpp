#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

std::atomic<u32> g_next_thread{1};
thread_local const u32 t_thread = g_next_thread.fetch_add(1);
/// Ids of this thread's open scoped spans, innermost last.
thread_local std::vector<u64> t_open;

}  // namespace

std::vector<f64> self_times_us(const std::vector<SpanRecord>& spans) {
  std::unordered_map<u64, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  std::vector<f64> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const f64 duration = s.real_end_us - s.real_start_us;
    std::vector<std::pair<f64, f64>> covered;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const std::size_t c : it->second) {
        const f64 lo = std::max(s.real_start_us, spans[c].real_start_us);
        const f64 hi = std::min(s.real_end_us, spans[c].real_end_us);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    f64 union_us = 0;
    f64 run_lo = 0, run_hi = -1;
    for (const auto& [lo, hi] : covered) {
      if (lo > run_hi) {
        if (run_hi > run_lo) union_us += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) union_us += run_hi - run_lo;
    self[i] = duration - union_us;
  }
  return self;
}

Tracer::Tracer()
    : main_thread_(t_thread), epoch_(std::chrono::steady_clock::now()) {}

Tracer::Span::Span(Span&& other) noexcept
    : tracer_(std::exchange(other.tracer_, nullptr)),
      rec_(std::move(other.rec_)),
      scoped_(other.scoped_) {}

Tracer::Span& Tracer::Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    end();
    tracer_ = std::exchange(other.tracer_, nullptr);
    rec_ = std::move(other.rec_);
    scoped_ = other.scoped_;
  }
  return *this;
}

void Tracer::Span::end() {
  if (tracer_ == nullptr) return;
  std::exchange(tracer_, nullptr)->close(rec_, scoped_);
}

Tracer::Span Tracer::begin(const char* name, const char* layer) {
  return open(name, layer, true);
}

Tracer::Span Tracer::begin_async(const char* name, const char* layer) {
  return open(name, layer, false);
}

f64 Tracer::real_now_us() const {
  return std::chrono::duration<f64, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

f64 Tracer::virt_now() const {
  const mlpo::SimClock* clock = clock_.load(std::memory_order_acquire);
  return clock != nullptr ? clock->now() : 0.0;
}

Tracer::Span Tracer::open(const char* name, const char* layer, bool scoped) {
  Span span;
  if (!enabled()) return span;
  span.tracer_ = this;
  span.scoped_ = scoped;
  SpanRecord& rec = span.rec_;
  rec.name = name;
  rec.layer = layer;
  rec.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  rec.parent = !t_open.empty() ? t_open.back()
                               : main_open_.load(std::memory_order_relaxed);
  rec.iteration = iteration_.load(std::memory_order_relaxed);
  rec.thread = t_thread;
  rec.async = !scoped;
  rec.virt_start_s = virt_now();
  rec.real_start_us = real_now_us();
  if (scoped) {
    t_open.push_back(rec.id);
    if (t_thread == main_thread_) {
      main_open_.store(rec.id, std::memory_order_relaxed);
    }
  }
  return span;
}

void Tracer::close(SpanRecord& rec, bool scoped) {
  rec.real_end_us = real_now_us();
  rec.virt_end_s = virt_now();
  if (scoped) {
    if (t_open.empty() || t_open.back() != rec.id) {
      throw std::logic_error("perfbench tracer: scoped span '" + rec.name +
                             "' ended out of order");
    }
    t_open.pop_back();
    if (t_thread == main_thread_) {
      main_open_.store(t_open.empty() ? 0 : t_open.back(),
                         std::memory_order_relaxed);
    }
  }
  mlpo::MutexLock lock(mutex_);
  records_.push_back(std::move(rec));
}

std::vector<SpanRecord> Tracer::spans() const {
  mlpo::MutexLock lock(mutex_);
  return records_;
}

void Tracer::write_chrome_json(const std::filesystem::path& path,
                               const std::string& process_name,
                               const mlpo::json::Object& other) const {
  using mlpo::json::Array;
  using mlpo::json::Object;
  const std::vector<SpanRecord> recs = spans();
  const std::vector<f64> self = self_times_us(recs);

  Array events;
  events.push_back(Object{{"ph", "M"},
                          {"name", "process_name"},
                          {"pid", 1},
                          {"args", Object{{"name", process_name}}}});
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const SpanRecord& r = recs[i];
    Object args{{"id", r.id},
                {"parent", r.parent},
                {"iteration", r.iteration},
                {"virt_start_s", r.virt_start_s},
                {"virt_end_s", r.virt_end_s},
                {"self_us", self[i]}};
    if (!r.async) {
      events.push_back(Object{{"ph", "X"},
                              {"name", r.name},
                              {"cat", r.layer},
                              {"ts", r.real_start_us},
                              {"dur", r.real_end_us - r.real_start_us},
                              {"pid", 1},
                              {"tid", static_cast<u64>(r.thread)},
                              {"args", std::move(args)}});
      continue;
    }
    const std::string id = std::to_string(r.id);
    events.push_back(Object{{"ph", "b"},
                            {"name", r.name},
                            {"cat", r.layer},
                            {"id", id},
                            {"ts", r.real_start_us},
                            {"pid", 1},
                            {"tid", static_cast<u64>(r.thread)},
                            {"args", std::move(args)}});
    events.push_back(Object{{"ph", "e"},
                            {"name", r.name},
                            {"cat", r.layer},
                            {"id", id},
                            {"ts", r.real_end_us},
                            {"pid", 1},
                            {"tid", static_cast<u64>(r.thread)}});
  }
  const mlpo::json::Value doc(Object{{"traceEvents", std::move(events)},
                                     {"displayTimeUnit", "ms"},
                                     {"otherData", other}});
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  out << doc.dump() << '\n';
  if (!out) {
    throw std::runtime_error("perfbench: could not write trace " +
                             path.string());
  }
}

}  // namespace perfbench
