// uring_real: the engine-level stack, built here as in
// bench/fig_calibration.cpp, over real files through io_uring:
//
//   OffloadEngine (execution "graph") -> IoScheduler -> VirtualTier
//     -> TimingTier (this benchmark's wrapper) -> UringFileTier
//
// at time_scale 1, so every SimClock second is a wall second and the
// iteration time is the program's own cost: io_uring transfers, the
// BufferPool/OffsetAllocator staging, the GraphExecutor on its
// work-stealing pool, the Adam and fp16 kernels, and the scheduler's real
// overhead. The CPU update rate is set so high that the modelled compute
// budget is ~0 and never pads an iteration with sleep.
//
// Working set: 32 subgroups against 3 host-cache slots (~10x), so most
// subgroups are fetched and flushed every iteration. The store lives under
// the run's output directory inside the checkout; files are replaced with
// tmp+rename and never fsynced, so the page cache absorbs them.
#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <memory>

#include "core/engine.hpp"
#include "core/offload_engine.hpp"
#include "io/uring_backend.hpp"
#include "tiers/virtual_tier.hpp"
#include "timing_tier.hpp"
#include "train/grad_source.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr u32 kSubgroups = 32;
constexpr u64 kSubgroupParams = 100'000'000;
constexpr u64 kElemScale = 256;
constexpr u32 kHostCacheSlots = 3;
constexpr f64 kCpuUpdateRate = 1e18;
// Nominal bandwidths seed the placement model, as in fig_calibration.
constexpr f64 kNominalReadBw = 2e9;
constexpr f64 kNominalWriteBw = 1.5e9;

mlpo::ShardLayout layout() {
  return mlpo::make_shard_layout(kSubgroups * kSubgroupParams, 1, 0,
                                 kSubgroupParams);
}

mlpo::EngineOptions engine_options() {
  mlpo::EngineOptions o = mlpo::EngineOptions::preset("mlp_offload");
  o.multipath = false;  // one real path
  o.execution = "graph";
  // Pinned rather than derived from the host's core count, so the workload
  // is the same on every machine; two workers leave cores for the
  // scheduler's dispatch threads and the io_uring reaper on a 4-core box.
  o.graph_workers = 2;
  o.elem_scale = kElemScale;
  o.host_cache_subgroups = kHostCacheSlots;
  o.cpu_update_rate = kCpuUpdateRate;
  return o;
}

/// One complete stack. Members are declared so destruction runs engine,
/// scheduler, virtual tier, then the file tier.
struct Stack {
  Stack(const fs::path& root, u64 seed, Tracer& tracer) : grads(seed) {
    mlpo::UringFileTier::Options file_opts;
    file_opts.read_bw = kNominalReadBw;
    file_opts.write_bw = kNominalWriteBw;
    tier = std::make_shared<TimingTier>(
        std::make_shared<mlpo::UringFileTier>("nvme", root, file_opts),
        &tracer);
    vtier.add_path(tier);
    mlpo::IoScheduler::Config io_cfg;
    io_cfg.queue_depth = 128;
    io = std::make_unique<mlpo::IoScheduler>(clock, &vtier, nullptr, nullptr,
                                             io_cfg);
    mlpo::EngineContext ctx;
    ctx.clock = &clock;
    ctx.vtier = &vtier;
    ctx.io = io.get();
    ctx.grads = &grads;
    engine = mlpo::make_engine(ctx, engine_options(), layout());
  }

  const mlpo::OffloadEngine& offload() const {
    return dynamic_cast<const mlpo::OffloadEngine&>(*engine);
  }

  const mlpo::SimClock clock{1.0};
  const mlpo::GradSource grads;
  std::shared_ptr<TimingTier> tier;
  mlpo::VirtualTier vtier;
  std::unique_ptr<mlpo::IoScheduler> io;
  std::unique_ptr<mlpo::Engine> engine;
};

/// Write back the store's filesystem. Each discarded stack leaves dirty
/// pages and freed blocks behind; without this their writeback lands in
/// the next timed section and set-up and iteration times wander with it.
void sync_store(const fs::path& root) {
  if (const int fd = ::open(root.c_str(), O_RDONLY | O_DIRECTORY); fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

}  // namespace

Outcome run_uring_real(const RunOptions& opts, Tracer& tracer) {
  Outcome out;
  zero_layers(out);
  const fs::path root = fs::absolute(opts.out_dir) / "uring_store" /
                        ("pid" + std::to_string(::getpid()));
  fs::remove_all(root);

  std::unique_ptr<Stack> stack;
  tracer.set_enabled(opts.trace);
  int setups = 0;
  const f64 setup_s = repeated_setup_seconds([&] {
    tracer.set_clock(nullptr);
    stack.reset();
    const fs::path dir = root / ("setup" + std::to_string(setups++));
    fs::remove_all(root);
    fs::create_directories(dir);
    sync_store(root);
    const auto t0 = SteadyClock::now();
    Tracer::Span span = tracer.begin("setup", "core");
    stack = std::make_unique<Stack>(dir, opts.seed, tracer);
    tracer.set_clock(&stack->clock);
    {
      Tracer::Span init = tracer.begin("Engine::initialize", "core");
      stack->engine->initialize();
    }
    span.end();
    return seconds_since(t0);
  });
  sync_store(root);
  mlpo::Engine& engine = *stack->engine;
  IoSnapshot io_start, io_mark;
  io_start.add(stack->io->stats());

  std::vector<mlpo::IterationReport> reports;
  std::vector<f64> iter_s, update_s, traced, untraced;
  const auto start = SteadyClock::now();
  u64 k = 0;
  for (;; ++k) {
    if (k == kWarmupIterations) {
      io_mark = IoSnapshot{};
      io_mark.add(stack->io->stats());
      stack->tier->reset();
    }
    // A traced run needs at least one traced and one untraced iteration.
    if (k > kWarmupIterations && seconds_since(start) >= opts.seconds &&
        (!opts.trace || !traced.empty())) {
      break;
    }
    const bool trace_this = opts.trace && k % 2 == 1;
    tracer.set_enabled(trace_this);
    tracer.set_iteration(static_cast<i64>(k));
    mlpo::IterationReport r;
    const f64 t0 = stack->clock.now();
    {
      Tracer::Span span = tracer.begin("iteration", "core");
      for (u32 id = 0; id < engine.num_subgroups(); ++id) {
        Tracer::Span deposit =
            tracer.begin("Engine::deposit_gradients_async", "core");
        engine.deposit_gradients_async(k, id, true, true);
      }
      {
        Tracer::Span wait = tracer.begin("Engine::wait_gradient_io", "core");
        engine.wait_gradient_io();
      }
      Tracer::Span update = tracer.begin("Engine::run_update", "core");
      r = engine.run_update(k);
    }
    const f64 seconds = stack->clock.now() - t0;
    if (k < kWarmupIterations) continue;
    iter_s.push_back(seconds);
    update_s.push_back(r.update_seconds);
    (trace_this ? traced : untraced).push_back(seconds);
    reports.push_back(std::move(r));
  }
  tracer.set_enabled(opts.trace);
  tracer.set_iteration(-1);
  const u64 iterations = k;

  // --- end-to-end ---
  set_iteration_metrics(out, iter_s, update_s);
  IoSnapshot io_end;
  io_end.add(stack->io->stats());
  const IoSnapshot window = io_end.since(io_mark);
  u64 bytes = 0;
  for (const auto& c : window.cls) bytes += c.sim_bytes;
  f64 makespan = 0;
  for (const f64 t : iter_s) makespan += t;
  set_tenant_metrics(out, {iter_s}, makespan, {bytes}, {1});
  out.set("setup_s", setup_s);
  out.set("peak_rss_mb", peak_rss_mb());

  // --- per layer ---
  set_report_layers(out, reports);
  set_io_layers(out, window, reports.size());
  const TimingTier::Totals backend = stack->tier->totals();
  const f64 backend_seconds = backend.read_seconds + backend.write_seconds;
  out.set("tiers.backend.read_us.p50", median(backend.read_us));
  out.set("tiers.backend.write_us.p50", median(backend.write_us));
  out.set("tiers.backend.gbps",
          ratio(static_cast<f64>(backend.real_bytes), backend_seconds) / 1e9);
  out.set("tiers.backend.errors", static_cast<f64>(backend.errors));
  // Storage requests ride the demand-prefetch, lazy-flush and checkpoint
  // classes. Grad-deposit requests here are D2H link transfers whose
  // service time is the synthetic gradient generation, not scheduling, so
  // that class is left out of the subtraction.
  f64 tier_service = 0;
  for (const mlpo::IoPriority p :
       {mlpo::IoPriority::kDemandPrefetch, mlpo::IoPriority::kLazyFlush,
        mlpo::IoPriority::kCheckpoint}) {
    tier_service += window.cls[static_cast<std::size_t>(p)].service_seconds;
  }
  out.set("io.overhead_us_per_req",
          overhead_us_per_req(tier_service, backend_seconds,
                              backend.reads + backend.writes));
  out.note(describe_working_set(engine));
  const mlpo::BufferPool::Stats pool = stack->offload().scratch_stats();
  out.set("util.pool.heap_fallbacks", static_cast<f64>(pool.heap_fallbacks));

  // --- correctness ---
  const IoSnapshot run_io = io_end.since(io_start);
  out.count_requests(run_io.submitted(), run_io.failed_or_cancelled());
  if (run_io.failed_or_cancelled() != 0 || backend.errors != 0) {
    out.fail(std::to_string(run_io.failed_or_cancelled()) +
             " I/O requests failed or were cancelled, " +
             std::to_string(backend.errors) + " backend errors");
  }
  if (pool.heap_fallbacks != 0) {
    out.fail("staging pool fell back to the heap " +
             std::to_string(pool.heap_fallbacks) + " times");
  }
  const u64 checksum = engine.state_checksum();
  tracer.set_clock(nullptr);
  stack.reset();
  std::error_code ec;
  fs::remove_all(root, ec);

  const auto reference_start = SteadyClock::now();
  const u64 expected =
      reference_checksum({layout()}, kElemScale, engine_options().adam,
                         mlpo::GradSource(opts.seed), iterations);
  out.note("cpu_only reference computed in " +
           std::to_string(seconds_since(reference_start)) + " s");
  if (checksum != expected) {
    out.fail("state checksum " + std::to_string(checksum) +
             " != cpu_only reference " + std::to_string(expected) +
             " after " + std::to_string(iterations) + " iterations");
  }
  out.note(opts.workload + ": " + std::to_string(iterations) +
           " iterations (" + std::to_string(kWarmupIterations) +
           " warmup), grad seed " + std::to_string(opts.seed) +
           ", checksum " + std::to_string(checksum));

  if (opts.trace) {
    finish_traced_run(opts, tracer, out, kSubgroupParams / kElemScale, traced,
                      untraced);
  }
  return out;
}

}  // namespace perfbench
