#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "core/cpu_only_engine.hpp"
#include "core/offload_engine.hpp"
#include "util/fp16.hpp"
#include "util/sim_clock.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

namespace perfbench {

using mlpo::f32;

f64 seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<f64>(SteadyClock::now() - start).count();
}

f64 repeated_setup_seconds(const std::function<f64()>& setup_once) {
  std::vector<f64> samples;
  f64 total = 0;
  while (samples.size() < kSetupMinRepeats || total < kSetupMinSeconds) {
    samples.push_back(setup_once());
    total += samples.back();
  }
  return median(std::move(samples));
}

f64 peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<f64>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- IoSnapshot -------------------------------------------------------------

void IoSnapshot::add(const mlpo::IoScheduler::Stats& s) {
  for (std::size_t p = 0; p < cls.size(); ++p) {
    auto& d = cls[p];
    const auto& x = s.priority[p];
    d.submitted += x.submitted;
    d.completed += x.completed;
    d.failed += x.failed;
    d.cancelled += x.cancelled;
    d.sim_bytes += x.sim_bytes;
    d.queue_wait_seconds += x.queue_wait_seconds;
    d.service_seconds += x.service_seconds;
  }
  coalesced_batches += s.coalesced_batches;
  max_queue_depth = std::max(max_queue_depth, s.max_queue_depth);
}

IoSnapshot IoSnapshot::since(const IoSnapshot& earlier) const {
  IoSnapshot d = *this;
  for (std::size_t p = 0; p < cls.size(); ++p) {
    const auto& e = earlier.cls[p];
    d.cls[p].submitted -= e.submitted;
    d.cls[p].completed -= e.completed;
    d.cls[p].failed -= e.failed;
    d.cls[p].cancelled -= e.cancelled;
    d.cls[p].sim_bytes -= e.sim_bytes;
    d.cls[p].queue_wait_seconds -= e.queue_wait_seconds;
    d.cls[p].service_seconds -= e.service_seconds;
  }
  d.coalesced_batches -= earlier.coalesced_batches;
  return d;
}

u64 IoSnapshot::submitted() const {
  u64 n = 0;
  for (const auto& c : cls) n += c.submitted;
  return n;
}

u64 IoSnapshot::failed_or_cancelled() const {
  u64 n = 0;
  for (const auto& c : cls) n += c.failed + c.cancelled;
  return n;
}

// --- TierSnapshot -----------------------------------------------------------

TierSnapshot TierSnapshot::of(const mlpo::StorageTier& tier) {
  const mlpo::TierStats& s = tier.stats();
  return TierSnapshot{s.bytes_read.load(), s.bytes_written.load(),
                      s.read_seconds(), s.write_seconds()};
}

TierSnapshot TierSnapshot::since(const TierSnapshot& earlier) const {
  return TierSnapshot{bytes_read - earlier.bytes_read,
                      bytes_written - earlier.bytes_written,
                      read_seconds - earlier.read_seconds,
                      write_seconds - earlier.write_seconds};
}

TierSnapshot& TierSnapshot::operator+=(const TierSnapshot& other) {
  bytes_read += other.bytes_read;
  bytes_written += other.bytes_written;
  read_seconds += other.read_seconds;
  write_seconds += other.write_seconds;
  return *this;
}

f64 TierSnapshot::read_gbps() const {
  return ratio(static_cast<f64>(bytes_read), read_seconds) / 1e9;
}

f64 TierSnapshot::write_gbps() const {
  return ratio(static_cast<f64>(bytes_written), write_seconds) / 1e9;
}

// --- reference state --------------------------------------------------------

u64 reference_checksum(const std::vector<mlpo::ShardLayout>& layouts,
                       u64 elem_scale, const mlpo::AdamConfig& adam,
                       const mlpo::GradSource& grads, u64 iterations) {
  // A clock fast enough that the cpu_only engine's modelled charges cost
  // no real time: only the numerics matter here.
  const mlpo::SimClock clock(1e12);
  mlpo::ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  mlpo::CpuOnlyEngine::Options opts;
  opts.elem_scale = elem_scale;
  opts.adam = adam;
  opts.cpu_update_rate = 1e18;
  // Ranks are independent, so each runs on its own thread; gradient
  // generation is serial inside an engine and dominates the cost.
  std::vector<u64> sums(layouts.size(), 0);
  std::vector<std::exception_ptr> errors(layouts.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < layouts.size(); ++i) {
    threads.emplace_back([&, i] {
      try {
        mlpo::CpuOnlyEngine engine(clock, grads, layouts[i], opts, &pool);
        engine.initialize();
        for (u64 k = 0; k < iterations; ++k) {
          for (u32 id = 0; id < engine.num_subgroups(); ++id) {
            engine.deposit_gradients_async(k, id, true, true);
          }
          engine.run_update(k);
        }
        sums[i] = engine.state_checksum();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  u64 sum = 0;
  for (std::size_t i = 0; i < layouts.size(); ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
    sum += sums[i];
  }
  return sum;
}

// --- kernels ----------------------------------------------------------------

namespace {

/// Kernel throughput as a ratio to memcpy, at `elems` real elements per
/// call (the workload's subgroup size). Each timed batch of calls is a span
/// in `tracer`.
struct KernelRatios {
  f64 adam_vs_memcpy = 0;
  f64 fp16_vs_memcpy = 0;
};

/// Median seconds per call of `fn`, timed in batches of calls long enough
/// (>= kMinBatchSeconds) that the clock reads and the batch's span do not
/// swamp small kernels, over enough batches to fill kBudgetSeconds.
template <typename Fn>
f64 time_calls(Tracer& tracer, const char* name, Fn&& fn) {
  constexpr f64 kMinBatchSeconds = 100e-6;
  constexpr f64 kBudgetSeconds = 0.03;
  constexpr std::size_t kMinBatches = 5;
  const auto probe = SteadyClock::now();
  fn();
  const f64 one_call = std::max(seconds_since(probe), 1e-9);
  const u64 batch = static_cast<u64>(std::ceil(kMinBatchSeconds / one_call));
  std::vector<f64> per_call;
  const auto start = SteadyClock::now();
  while (per_call.size() < kMinBatches ||
         seconds_since(start) < kBudgetSeconds) {
    Tracer::Span span = tracer.begin(name, "train");
    const auto t0 = SteadyClock::now();
    for (u64 i = 0; i < batch; ++i) fn();
    per_call.push_back(seconds_since(t0) / static_cast<f64>(batch));
  }
  return median(std::move(per_call));
}

KernelRatios measure_kernels(u64 elems, Tracer& tracer) {
  const std::size_t n = static_cast<std::size_t>(elems);
  std::vector<f32> params(n, 0.5f), momentum(n, 0.0f), variance(n, 0.0f),
      grads(n, 1e-3f), upscaled(n, 0.0f);
  std::vector<mlpo::u16> halves(n, 0);
  std::vector<mlpo::u8> copy_src(n * 16, 1), copy_dst(n * 16, 0);
  const mlpo::AdamConfig adam;
  u32 step = 0;

  const f64 t_copy = time_calls(tracer, "kernel.memcpy", [&] {
    std::memcpy(copy_dst.data(), copy_src.data(), copy_src.size());
  });
  const f64 t_adam = time_calls(tracer, "kernel.adam_update", [&] {
    mlpo::adam_update(adam, params, momentum, variance, grads, ++step);
  });
  const f64 t_down = time_calls(tracer, "kernel.fp32_to_fp16", [&] {
    mlpo::fp32_to_fp16(params, halves);
  });
  const f64 t_up = time_calls(tracer, "kernel.fp16_to_fp32", [&] {
    mlpo::fp16_to_fp32(halves, upscaled);
  });
  if (copy_dst[n] != 1 || !std::isfinite(params[0] + upscaled[n - 1])) {
    throw std::runtime_error("perfbench: kernel outputs are not finite");
  }
  // Bytes each call moves: memcpy reads and writes 16 B per element;
  // Adam reads params, moments and gradients (16 B) and writes three
  // arrays (12 B); a conversion reads 4 or 2 B and writes 2 or 4 B.
  const f64 e = static_cast<f64>(elems);
  const f64 copy_gbps = 32 * e / t_copy;
  KernelRatios r;
  r.adam_vs_memcpy = (28 * e / t_adam) / copy_gbps;
  r.fp16_vs_memcpy = (12 * e / (t_down + t_up)) / copy_gbps;
  return r;
}

}  // namespace

f64 bw_estimate_err_pct(const std::vector<const mlpo::Engine*>& engines,
                        const mlpo::VirtualTier& vtier) {
  const std::vector<f64> nominal = vtier.path_bandwidths();
  f64 sum = 0;
  u64 count = 0;
  for (const mlpo::Engine* engine : engines) {
    const auto* offload = dynamic_cast<const mlpo::OffloadEngine*>(engine);
    if (offload == nullptr) continue;
    const std::vector<f64> estimate = offload->placement().bandwidths();
    for (std::size_t p = 0; p < estimate.size() && p < nominal.size(); ++p) {
      if (nominal[p] <= 0) continue;
      sum += std::abs(estimate[p] - nominal[p]) / nominal[p] * 100.0;
      ++count;
    }
  }
  return count > 0 ? sum / static_cast<f64>(count) : 0;
}

std::string describe_working_set(const mlpo::Engine& engine) {
  std::string text = std::to_string(engine.num_subgroups()) +
                     " subgroups per worker";
  if (const auto* offload = dynamic_cast<const mlpo::OffloadEngine*>(&engine)) {
    const mlpo::EngineOptions& o = offload->options();
    text += ", " + std::to_string(o.host_cache_subgroups) +
            " host-cache slots, order " + o.update_order_policy +
            ", execution " + o.execution;
  }
  return text;
}

// --- metric setters ---------------------------------------------------------

void set_iteration_metrics(Outcome& out, const std::vector<f64>& iter_s,
                           const std::vector<f64>& update_s) {
  out.set("iter_s.p50", median(iter_s));
  out.set("update_s.p50", median(update_s));
  if (const auto t = tail(iter_s)) {
    out.set("iter_s.tail", t->value);
    char line[128];
    std::snprintf(line, sizeof(line),
                  "iter_s.tail is p%.1f of %zu iterations", t->percentile,
                  t->samples);
    out.note(line);
  } else {
    // Too few samples for the rule; the slowest iteration stands in.
    const f64 worst =
        iter_s.empty() ? 0 : *std::max_element(iter_s.begin(), iter_s.end());
    out.set("iter_s.tail", worst);
    out.note("iter_s.tail is the max of " + std::to_string(iter_s.size()) +
             " iterations (fewer than " + std::to_string(kTailBeyond + 1) +
             ")");
  }
}

void set_report_layers(Outcome& out,
                       const std::vector<mlpo::IterationReport>& reports) {
  f64 fetch = 0, flush = 0, compute = 0, idle = 0;
  u64 hits = 0, processed = 0, bytes = 0, params = 0, stolen = 0,
      acquires = 0, fallbacks = 0, frontier = 0;
  std::vector<f64> forward, backward;
  for (const auto& r : reports) {
    fetch += r.fetch_seconds;
    flush += r.flush_seconds;
    compute += r.update_compute_seconds;
    hits += r.host_cache_hits;
    processed += r.subgroups_processed;
    bytes += r.sim_bytes_fetched + r.sim_bytes_flushed;
    params += r.params_updated;
    stolen += r.graph_tasks_stolen;
    idle += r.graph_executor_idle_seconds;
    frontier = std::max(frontier, r.graph_frontier_high_water);
    acquires += r.pool_acquires;
    fallbacks += r.pool_heap_fallbacks;
    forward.push_back(r.forward_seconds);
    backward.push_back(r.backward_seconds);
  }
  const f64 n = static_cast<f64>(std::max<std::size_t>(1, reports.size()));
  out.set("core.cache_hit_rate",
          ratio(static_cast<f64>(hits), static_cast<f64>(processed)));
  out.set("core.fetch_s", fetch / n);
  out.set("core.flush_s", flush / n);
  out.set("core.compute_s", compute / n);
  out.set("core.update_io_fraction",
          ratio(fetch + flush, fetch + flush + compute));
  out.set("core.bytes_per_param",
          ratio(static_cast<f64>(bytes), static_cast<f64>(params)));
  out.set("graph.tasks_stolen", static_cast<f64>(stolen) / n);
  out.set("graph.idle_s", idle / n);
  out.set("graph.frontier_max", static_cast<f64>(frontier));
  out.set("util.pool.acquires", static_cast<f64>(acquires) / n);
  out.set("util.pool.heap_fallbacks", static_cast<f64>(fallbacks));
  out.set("runtime.forward_s", median(forward));
  out.set("runtime.backward_s", median(backward));
}

void set_io_layers(Outcome& out, const IoSnapshot& window, u64 iterations) {
  const struct {
    mlpo::IoPriority priority;
    const char* prefix;
  } classes[] = {{mlpo::IoPriority::kDemandPrefetch, "io.demand_prefetch"},
                 {mlpo::IoPriority::kGradDeposit, "io.grad_deposit"},
                 {mlpo::IoPriority::kLazyFlush, "io.lazy_flush"}};
  for (const auto& c : classes) {
    const auto& s = window.cls[static_cast<std::size_t>(c.priority)];
    const f64 served = static_cast<f64>(s.completed + s.failed);
    out.set(std::string(c.prefix) + ".wait_s.mean",
            ratio(s.queue_wait_seconds, served));
    out.set(std::string(c.prefix) + ".service_s.mean",
            ratio(s.service_seconds, served));
  }
  out.set("io.coalesced_batches",
          ratio(static_cast<f64>(window.coalesced_batches),
                static_cast<f64>(iterations)));
  out.set("io.max_queue_depth", static_cast<f64>(window.max_queue_depth));
}

void zero_layers(Outcome& out) {
  for (const MetricSpec& s : per_layer_specs()) out.set(s.name, 0);
}

void set_tenant_metrics(Outcome& out,
                        const std::vector<std::vector<f64>>& tenant_iter_s,
                        f64 makespan, const std::vector<u64>& bytes,
                        const std::vector<u32>& weights) {
  f64 worst = 0;
  std::size_t iterations = 0;
  for (const auto& samples : tenant_iter_s) {
    worst = std::max(worst, median(samples));
    iterations += samples.size();
  }
  out.set("tenant.worst_iter_s.p50", worst);
  out.set("tenant.iters_per_ks",
          ratio(static_cast<f64>(iterations), makespan) * 1000.0);
  out.set("tenant.share_ratio_min", share_ratio_min(bytes, weights));
}

void finish_traced_run(const RunOptions& opts, Tracer& tracer, Outcome& out,
                       u64 kernel_elems, const std::vector<f64>& traced,
                       const std::vector<f64>& untraced) {
  const KernelRatios kr = measure_kernels(kernel_elems, tracer);
  out.set("train.adam_vs_memcpy", kr.adam_vs_memcpy);
  out.set("train.fp16_vs_memcpy", kr.fp16_vs_memcpy);
  const f64 base = median(untraced);
  const f64 overhead_pct =
      base > 0 ? (median(traced) - base) / base * 100.0 : 0;
  out.set("trace.overhead_pct", overhead_pct);

  const std::vector<SpanRecord> spans = tracer.spans();
  const std::vector<f64> self = self_times_us(spans);
  struct Total {
    u64 count = 0;
    f64 total_us = 0;
    f64 self_us = 0;
  };
  std::map<std::string, Total> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Total& t = by_name[spans[i].layer + "/" + spans[i].name];
    ++t.count;
    t.total_us += spans[i].real_end_us - spans[i].real_start_us;
    t.self_us += self[i];
  }
  const std::filesystem::path path =
      opts.out_dir / "traces" /
      (opts.workload + "_seed" + std::to_string(opts.seed) + ".json");
  mlpo::json::Object other{{"workload", opts.workload},
                           {"seed", opts.seed},
                           {"tracing_overhead_pct", overhead_pct},
                           {"spans", static_cast<u64>(spans.size())}};
  tracer.write_chrome_json(path, "perfbench " + opts.workload, other);

  out.note("trace: " + path.string() + " (" + std::to_string(spans.size()) +
           " spans)");
  char line[192];
  std::snprintf(line, sizeof(line), "tracing overhead on iter_s.p50: %+.3f%%",
                overhead_pct);
  out.note(line);
  out.note(
      "  span (layer/name)                    count     total_ms      self_ms");
  for (const auto& [name, t] : by_name) {
    std::snprintf(line, sizeof(line), "  %-35s %7llu %12.3f %12.3f",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_us / 1e3, t.self_us / 1e3);
    out.note(line);
  }
}

}  // namespace perfbench
