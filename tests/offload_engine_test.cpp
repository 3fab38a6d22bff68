// OffloadEngine: initialization/distribution, the update pipeline, caching
// behaviour, numerical correctness against a hand-rolled reference, option
// validation, the "linear" shape's flush window, and graph mode over a real
// async (io_uring) file tier.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "core/cpu_only_engine.hpp"
#include "core/offload_engine.hpp"
#include "io/uring_backend.hpp"
#include "tiers/memory_tier.hpp"
#include "tiers/throttled_tier.hpp"
#include "train/adam.hpp"
#include "util/fp16.hpp"

namespace mlpo {
namespace {

constexpr u64 kSubgroupParams = 4096;
constexpr u32 kNumSubgroups = 8;

// Shared scaffolding: a two-path virtual tier over fast emulated devices.
// The scheduler is built after the paths exist (it spawns one dispatch
// channel per path direction at construction).
struct EngineRig {
  SimClock clock{20000.0};
  VirtualTier vtier;
  GradSource grads;
  std::unique_ptr<IoScheduler> io;
  std::unique_ptr<IoScheduler> io_unlocked;

  EngineRig() {
    ThrottleSpec nvme_spec{/*read_bw=*/4e6, /*write_bw=*/3e6};
    nvme_spec.chunk_bytes = 16 * KiB;
    vtier.add_path(std::make_shared<ThrottledTier>(
        "nvme", std::make_shared<MemoryTier>("nvme-back"), clock, nvme_spec));
    ThrottleSpec pfs_spec{2e6, 2e6};
    pfs_spec.chunk_bytes = 16 * KiB;
    vtier.add_path(std::make_shared<ThrottledTier>(
        "pfs", std::make_shared<MemoryTier>("pfs-back"), clock, pfs_spec,
        /*persistent=*/true));
    IoScheduler::Config cfg;
    cfg.queue_depth = 128;
    io = std::make_unique<IoScheduler>(clock, &vtier, nullptr, nullptr, cfg);
    cfg.tier_exclusive_locking = false;
    io_unlocked =
        std::make_unique<IoScheduler>(clock, &vtier, nullptr, nullptr, cfg);
  }

  EngineContext context(int worker = 0, int rank = 0) {
    EngineContext ctx;
    ctx.clock = &clock;
    ctx.vtier = &vtier;
    ctx.io = io.get();
    ctx.cpu_pool = nullptr;
    ctx.grads = &grads;
    ctx.worker_id = worker;
    ctx.rank = rank;
    return ctx;
  }

  /// Context whose scheduler locking matches the engine's flags (the
  /// deepspeed_zero3 baseline runs without tier-exclusive locking).
  EngineContext context_for(const EngineOptions& opts, int worker = 0,
                            int rank = 0) {
    EngineContext ctx = context(worker, rank);
    if (!opts.tier_exclusive_locking) ctx.io = io_unlocked.get();
    return ctx;
  }

  static EngineOptions fast_options(EngineOptions opts) {
    opts.cpu_update_rate = 1e9;  // keep compute sleeps tiny
    opts.convert.fp32_bytes_per_sec = 1e12;
    opts.host_cache_subgroups = 3;
    return opts;
  }

  static ShardLayout layout() {
    return make_shard_layout(kSubgroupParams * kNumSubgroups, 1, 0,
                             kSubgroupParams);
  }

  void run_one_iteration(OffloadEngine& engine, u64 iter) {
    for (u32 id = 0; id < engine.num_subgroups(); ++id) {
      engine.deposit_gradients_async(iter, id, true, true);
    }
    engine.wait_gradient_io();
    engine.run_update(iter);
  }
};

TEST(OffloadEngine, RequiresContextPieces) {
  EngineRig rig;
  EngineContext broken = rig.context();
  broken.vtier = nullptr;
  EXPECT_THROW(
      OffloadEngine(broken, EngineRig::fast_options(EngineOptions::mlp_offload()),
                    EngineRig::layout()),
      std::invalid_argument);
}

TEST(OffloadEngine, RejectsUnsafeCacheDepth) {
  EngineRig rig;
  auto opts = EngineRig::fast_options(EngineOptions::mlp_offload());
  opts.prefetch_ahead = 2;
  opts.host_cache_subgroups = 2;  // < prefetch_ahead + 1
  EXPECT_THROW(OffloadEngine(rig.context(), opts, EngineRig::layout()),
               std::invalid_argument);
}

TEST(OffloadEngine, InitializeDistributesPerEq1) {
  EngineRig rig;
  OffloadEngine engine(rig.context(),
                       EngineRig::fast_options(EngineOptions::mlp_offload()),
                       EngineRig::layout());
  engine.initialize();
  const auto dist = engine.distribution();
  EXPECT_EQ(dist.host_sim_bytes, 0u);  // cold start: everything offloaded
  const u64 total = dist.path_sim_bytes[0] + dist.path_sim_bytes[1];
  EXPECT_EQ(total, kSubgroupParams * kNumSubgroups * kOptimStateBytesPerParam);
  // 3:2 bandwidth ratio (min(4,3)=3 vs min(2,2)=2): path 0 gets more.
  EXPECT_GT(dist.path_sim_bytes[0], dist.path_sim_bytes[1]);
}

TEST(OffloadEngine, DoubleInitializeThrows) {
  EngineRig rig;
  OffloadEngine engine(rig.context(),
                       EngineRig::fast_options(EngineOptions::mlp_offload()),
                       EngineRig::layout());
  engine.initialize();
  EXPECT_THROW(engine.initialize(), std::logic_error);
}

TEST(OffloadEngine, UpdateBeforeInitializeThrows) {
  EngineRig rig;
  OffloadEngine engine(rig.context(),
                       EngineRig::fast_options(EngineOptions::mlp_offload()),
                       EngineRig::layout());
  EXPECT_THROW(engine.run_update(0), std::logic_error);
}

TEST(OffloadEngine, SinglePathWhenMultipathDisabled) {
  EngineRig rig;
  auto opts = EngineRig::fast_options(EngineOptions::deepspeed_zero3());
  OffloadEngine engine(rig.context_for(opts), opts, EngineRig::layout());
  engine.initialize();
  const auto dist = engine.distribution();
  EXPECT_EQ(dist.path_sim_bytes[1], 0u) << "baseline must not touch the PFS";
  EXPECT_GT(dist.path_sim_bytes[0], 0u);
}

TEST(OffloadEngine, UpdateProcessesEverySubgroupAndAdvancesStep) {
  EngineRig rig;
  OffloadEngine engine(rig.context(),
                       EngineRig::fast_options(EngineOptions::mlp_offload()),
                       EngineRig::layout());
  engine.initialize();
  rig.run_one_iteration(engine, 0);
  for (u32 id = 0; id < engine.num_subgroups(); ++id) {
    EXPECT_EQ(engine.snapshot_subgroup(id).step(), 1u) << id;
  }
  rig.run_one_iteration(engine, 1);
  for (u32 id = 0; id < engine.num_subgroups(); ++id) {
    EXPECT_EQ(engine.snapshot_subgroup(id).step(), 2u) << id;
  }
}

TEST(OffloadEngine, ReportAccountsAllSubgroups) {
  EngineRig rig;
  OffloadEngine engine(rig.context(),
                       EngineRig::fast_options(EngineOptions::mlp_offload()),
                       EngineRig::layout());
  engine.initialize();
  for (u32 id = 0; id < engine.num_subgroups(); ++id) {
    engine.deposit_gradients_async(0, id, true, true);
  }
  engine.wait_gradient_io();
  const auto report = engine.run_update(0);
  EXPECT_EQ(report.subgroups_processed, kNumSubgroups);
  EXPECT_EQ(report.params_updated, kSubgroupParams * kNumSubgroups);
  EXPECT_EQ(report.traces.size(), kNumSubgroups);
  EXPECT_GT(report.update_seconds, 0.0);
  EXPECT_GT(report.sim_bytes_fetched, 0u);
  EXPECT_GT(report.update_compute_seconds, 0.0);
  // Iteration 0 is cold: every subgroup was fetched.
  EXPECT_EQ(report.host_cache_hits, 0u);
}

TEST(OffloadEngine, CacheHitsAppearFromSecondIteration) {
  EngineRig rig;
  auto opts = EngineRig::fast_options(EngineOptions::mlp_offload());
  opts.host_cache_subgroups = 3;
  OffloadEngine engine(rig.context(), opts, EngineRig::layout());
  engine.initialize();
  rig.run_one_iteration(engine, 0);

  for (u32 id = 0; id < engine.num_subgroups(); ++id) {
    engine.deposit_gradients_async(1, id, true, true);
  }
  engine.wait_gradient_io();
  const auto report = engine.run_update(1);
  EXPECT_EQ(report.host_cache_hits, 3u)
      << "descending iteration reuses the cached tail";
  // Cached subgroups transferred nothing.
  u32 zero_read_traces = 0;
  for (const auto& t : report.traces) {
    if (t.host_cache_hit) {
      EXPECT_EQ(t.sim_bytes_read, 0u);
      ++zero_read_traces;
    }
  }
  EXPECT_EQ(zero_read_traces, 3u);
}

TEST(OffloadEngine, BaselineNeverHitsCache) {
  EngineRig rig;
  const auto opts = EngineRig::fast_options(EngineOptions::deepspeed_zero3());
  OffloadEngine engine(rig.context_for(opts), opts, EngineRig::layout());
  engine.initialize();
  for (u64 iter = 0; iter < 3; ++iter) {
    for (u32 id = 0; id < engine.num_subgroups(); ++id) {
      engine.deposit_gradients_async(iter, id, true, true);
    }
    engine.wait_gradient_io();
    const auto report = engine.run_update(iter);
    EXPECT_EQ(report.host_cache_hits, 0u) << iter;
    // Thrashing baseline: every subgroup both fetched and flushed, with
    // FP32 gradients inflating fetches to 16 B/param.
    EXPECT_EQ(report.sim_bytes_fetched,
              kSubgroupParams * kNumSubgroups *
                  kOptimStateWithGradBytesPerParam);
    EXPECT_EQ(report.sim_bytes_flushed,
              kSubgroupParams * kNumSubgroups * kOptimStateBytesPerParam);
  }
}

TEST(OffloadEngine, DelayedConversionShrinksFetches) {
  EngineRig rig;
  auto opts = EngineRig::fast_options(EngineOptions::mlp_offload());
  // Isolate the gradient effect: no cache reuse, plain ascending schedule.
  opts.host_cache_subgroups = 0;
  opts.update_order_policy = "ascending";
  OffloadEngine engine(rig.context(), opts, EngineRig::layout());
  engine.initialize();
  for (u32 id = 0; id < engine.num_subgroups(); ++id) {
    engine.deposit_gradients_async(0, id, true, true);
  }
  engine.wait_gradient_io();
  const auto report = engine.run_update(0);
  EXPECT_EQ(report.sim_bytes_fetched,
            kSubgroupParams * kNumSubgroups * kOptimStateBytesPerParam)
      << "12 B/param without FP32 gradients";
}

TEST(OffloadEngine, StateMatchesManualAdamReference) {
  // Full-fidelity run (elem_scale 1): engine state after two iterations
  // must equal a direct Adam simulation on the same gradients.
  EngineRig rig;
  auto opts = EngineRig::fast_options(EngineOptions::mlp_offload());
  opts.elem_scale = 1;
  const auto layout = EngineRig::layout();
  OffloadEngine engine(rig.context(), opts, layout);
  engine.initialize();
  rig.run_one_iteration(engine, 0);
  rig.run_one_iteration(engine, 1);

  for (u32 id = 0; id < engine.num_subgroups(); ++id) {
    // Rebuild the reference: same init, same gradients, two Adam steps.
    const Subgroup got = engine.snapshot_subgroup(id);
    Subgroup ref(id, layout.subgroup_sizes[id], 1);
    // Initial params must match the engine's deterministic init; recover
    // them from a fresh engine instead of duplicating the hash here.
    EngineRig rig2;
    OffloadEngine fresh(rig2.context(), opts, layout);
    fresh.initialize();
    const Subgroup init = fresh.snapshot_subgroup(id);
    std::copy(init.params().begin(), init.params().end(),
              ref.params().begin());

    std::vector<u16> ghalf(ref.real_elems());
    std::vector<f32> g(ref.real_elems());
    for (u32 step = 1; step <= 2; ++step) {
      rig.grads.generate_fp16(0, id, step - 1, ghalf);
      fp16_to_fp32(ghalf, g);
      adam_update_reference(opts.adam, ref.params(), ref.momentum(),
                            ref.variance(), g, step);
    }
    for (std::size_t i = 0; i < ref.real_elems(); ++i) {
      EXPECT_EQ(got.params()[i], ref.params()[i]) << "sg " << id << " i " << i;
      EXPECT_EQ(got.momentum()[i], ref.momentum()[i]) << id << " " << i;
      EXPECT_EQ(got.variance()[i], ref.variance()[i]) << id << " " << i;
    }
  }
}

TEST(OffloadEngine, GradientAccumulationSumsMicroSteps) {
  EngineRig rig;
  auto opts = EngineRig::fast_options(EngineOptions::mlp_offload());
  opts.elem_scale = 1;
  const auto layout = EngineRig::layout();
  OffloadEngine engine(rig.context(), opts, layout);
  engine.initialize();
  // Two micro-steps then one update.
  for (u32 m = 0; m < 2; ++m) {
    for (u32 id = 0; id < engine.num_subgroups(); ++id) {
      engine.deposit_gradients_async(m, id, m == 0, m == 1);
    }
    engine.wait_gradient_io();
  }
  engine.run_update(0);

  const u32 id = 0;
  const Subgroup got = engine.snapshot_subgroup(id);

  EngineRig rig2;
  OffloadEngine fresh(rig2.context(), opts, layout);
  fresh.initialize();
  Subgroup ref = fresh.snapshot_subgroup(id);
  std::vector<u16> g0(ref.real_elems()), g1(ref.real_elems());
  rig.grads.generate_fp16(0, id, 0, g0);
  rig.grads.generate_fp16(0, id, 1, g1);
  // FP16 accumulation: decode, add, re-encode, then upscale.
  std::vector<f32> g(ref.real_elems());
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] = Fp16::decode(Fp16::encode(Fp16::decode(g0[i]) + Fp16::decode(g1[i])));
  }
  adam_update_reference(opts.adam, ref.params(), ref.momentum(),
                        ref.variance(), g, 1);
  for (std::size_t i = 0; i < ref.real_elems(); ++i) {
    EXPECT_EQ(got.params()[i], ref.params()[i]) << i;
  }
}

TEST(OffloadEngine, NoNansEscapeThePipeline) {
  EngineRig rig;
  OffloadEngine engine(rig.context(),
                       EngineRig::fast_options(EngineOptions::mlp_offload()),
                       EngineRig::layout());
  engine.initialize();
  for (u64 iter = 0; iter < 4; ++iter) rig.run_one_iteration(engine, iter);
  for (u32 id = 0; id < engine.num_subgroups(); ++id) {
    const Subgroup sg = engine.snapshot_subgroup(id);
    for (const f32 x : sg.params()) EXPECT_TRUE(std::isfinite(x));
    for (const f32 x : sg.momentum()) EXPECT_TRUE(std::isfinite(x));
    for (const f32 x : sg.variance()) EXPECT_TRUE(std::isfinite(x));
  }
}

TEST(OffloadEngine, StaticPlacementIgnoresObservations) {
  // With the eq1_static policy the quotas must stay at the seeded values
  // no matter what the transfers observe.
  EngineRig rig;
  auto opts = EngineRig::fast_options(EngineOptions::mlp_offload());
  opts.placement_policy = "eq1_static";
  OffloadEngine engine(rig.context(), opts, EngineRig::layout());
  engine.initialize();
  const auto seeded = engine.placement().quotas();
  for (u64 iter = 0; iter < 3; ++iter) rig.run_one_iteration(engine, iter);
  EXPECT_EQ(engine.placement().quotas(), seeded);
  EXPECT_EQ(engine.placement().bandwidths(),
            rig.vtier.path_bandwidths());
}

TEST(OffloadEngine, AdaptivePlacementUpdatesEstimates) {
  EngineRig rig;
  auto opts = EngineRig::fast_options(EngineOptions::mlp_offload());
  OffloadEngine engine(rig.context(), opts, EngineRig::layout());
  engine.initialize();
  const auto seeded = engine.placement().bandwidths();
  rig.run_one_iteration(engine, 0);
  // Observed bandwidths replace the microbenchmark seeds after the first
  // transfers (they include queueing, so they differ from the nominal).
  EXPECT_NE(engine.placement().bandwidths(), seeded);
}

TEST(OffloadEngine, SelectablePoliciesProduceRunnableScenarios) {
  // Every registry combination is a runnable engine configuration, not
  // just a constructible one (the equivalence suite checks the bits; this
  // checks the pipeline mechanics under each schedule).
  for (const char* placement : {"round_robin", "bandwidth_greedy",
                                "contention_aware"}) {
    for (const char* order : {"ascending", "host_resident_first"}) {
      EngineRig rig;
      auto opts = EngineRig::fast_options(EngineOptions::mlp_offload());
      opts.placement_policy = placement;
      opts.update_order_policy = order;
      OffloadEngine engine(rig.context(), opts, EngineRig::layout());
      engine.initialize();
      for (u64 iter = 0; iter < 2; ++iter) {
        rig.run_one_iteration(engine, iter);
      }
      for (u32 id = 0; id < engine.num_subgroups(); ++id) {
        EXPECT_EQ(engine.snapshot_subgroup(id).step(), 2u)
            << placement << "/" << order << " sg " << id;
      }
    }
  }
}

TEST(OffloadEngine, HostResidentFirstHitsEverythingTheCacheHolds) {
  EngineRig rig;
  auto opts = EngineRig::fast_options(EngineOptions::mlp_offload());
  opts.update_order_policy = "host_resident_first";
  OffloadEngine engine(rig.context(), opts, EngineRig::layout());
  engine.initialize();
  rig.run_one_iteration(engine, 0);
  ASSERT_EQ(engine.host_resident().size(), 3u);

  for (u32 id = 0; id < engine.num_subgroups(); ++id) {
    engine.deposit_gradients_async(1, id, true, true);
  }
  engine.wait_gradient_io();
  const auto report = engine.run_update(1);
  EXPECT_EQ(report.host_cache_hits, 3u)
      << "every resident subgroup must be consumed before eviction";
}

TEST(OffloadEngine, DistributionConservesTotalBytes) {
  EngineRig rig;
  OffloadEngine engine(rig.context(),
                       EngineRig::fast_options(EngineOptions::mlp_offload()),
                       EngineRig::layout());
  engine.initialize();
  const u64 expected =
      kSubgroupParams * kNumSubgroups * kOptimStateBytesPerParam;
  for (u64 iter = 0; iter < 3; ++iter) {
    rig.run_one_iteration(engine, iter);
    const auto dist = engine.distribution();
    const u64 total = dist.host_sim_bytes +
                      std::accumulate(dist.path_sim_bytes.begin(),
                                      dist.path_sim_bytes.end(), u64{0});
    EXPECT_EQ(total, expected) << "iteration " << iter;
    EXPECT_GT(dist.host_sim_bytes, 0u) << "cache keeps the tail resident";
  }
  EXPECT_EQ(engine.host_resident().size(), 3u);
}

// --- The "linear" shape's flush window ---------------------------------------

// Tier events in the order they happened, shared by every path of a rig:
// "R<key>" when a read is dispatched to the tier, "W<key>" once a write has
// landed. arm() holds the first write back until `reads` reads have been
// dispatched or `patience` has passed, whichever comes first; later writes
// run free.
struct TierEventLog {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::string> events;
  u64 reads_dispatched = 0;
  u64 hold_for_reads = 0;
  std::chrono::milliseconds patience{0};

  void arm(u64 reads, std::chrono::milliseconds wait) {
    std::lock_guard<std::mutex> lock(mutex);
    events.clear();
    reads_dispatched = 0;
    hold_for_reads = reads;
    patience = wait;
  }
  void read_dispatched(const std::string& key) {
    std::lock_guard<std::mutex> lock(mutex);
    events.push_back("R" + key);
    ++reads_dispatched;
    cv.notify_all();
  }
  void before_write() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait_for(lock, patience,
                [this] { return reads_dispatched >= hold_for_reads; });
    hold_for_reads = 0;
  }
  void write_landed(const std::string& key) {
    std::lock_guard<std::mutex> lock(mutex);
    events.push_back("W" + key);
  }
  /// Index of `event` in the log; fails the test if it never happened.
  std::size_t at(const std::string& event) {
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = std::find(events.begin(), events.end(), event);
    if (it == events.end()) {
      ADD_FAILURE() << event << " never happened";
      return 0;
    }
    return static_cast<std::size_t>(it - events.begin());
  }
};

class EventLogTier final : public StorageTier {
 public:
  EventLogTier(std::shared_ptr<StorageTier> inner, TierEventLog& log)
      : inner_(std::move(inner)), log_(&log) {}

  const std::string& name() const override { return inner_->name(); }
  void write(const std::string& key, std::span<const u8> data,
             u64 sim_bytes = 0) override {
    log_->before_write();
    inner_->write(key, data, sim_bytes);
    log_->write_landed(key);
  }
  void read(const std::string& key, std::span<u8> out,
            u64 sim_bytes = 0) override {
    log_->read_dispatched(key);
    inner_->read(key, out, sim_bytes);
  }
  void peek(const std::string& key, std::span<u8> out) override {
    inner_->peek(key, out);
  }
  bool exists(const std::string& key) const override {
    return inner_->exists(key);
  }
  u64 object_size(const std::string& key) const override {
    return inner_->object_size(key);
  }
  void erase(const std::string& key) override { inner_->erase(key); }
  f64 read_bandwidth() const override { return inner_->read_bandwidth(); }
  f64 write_bandwidth() const override { return inner_->write_bandwidth(); }
  bool persistent() const override { return inner_->persistent(); }

 private:
  std::shared_ptr<StorageTier> inner_;
  TierEventLog* log_;
};

// Pins the host-buffer budget of the "linear" shape from the tier's event
// order: under "ascending" every position flushes itself, and a state read
// for position p is not dispatched before the write of position
// p - prefetch_ahead - 2 has landed. The first write is held back until
// every read is out: the "graph" shape (no window) gets there, so every
// read precedes every write; under "linear" the budget keeps the later
// reads back until the hold gives up, and without it they would all go out
// ahead of that write.
TEST(OffloadEngineWindow, LinearReadsWaitForTheFlushBudgetGraphReadsDoNot) {
  for (const u32 ahead : {1u, 2u}) {
    for (const std::string execution : {"linear", "graph"}) {
      SCOPED_TRACE("execution=" + execution +
                   " prefetch_ahead=" + std::to_string(ahead));
      SimClock clock{20000.0};
      GradSource grads;
      TierEventLog log;
      VirtualTier vtier;
      ThrottleSpec spec{4e6, 3e6};
      spec.chunk_bytes = 16 * KiB;
      for (const char* name : {"nvme", "pfs"}) {
        vtier.add_path(std::make_shared<EventLogTier>(
            std::make_shared<ThrottledTier>(
                name, std::make_shared<MemoryTier>(name), clock, spec),
            log));
      }
      IoScheduler::Config cfg;
      cfg.queue_depth = 128;
      IoScheduler io(clock, &vtier, nullptr, nullptr, cfg);
      EngineContext ctx;
      ctx.clock = &clock;
      ctx.vtier = &vtier;
      ctx.io = &io;
      ctx.grads = &grads;
      auto opts = EngineRig::fast_options(EngineOptions::mlp_offload());
      opts.update_order_policy = "ascending";
      opts.prefetch_ahead = ahead;
      opts.execution = execution;
      opts.graph_workers = 2;
      OffloadEngine engine(ctx, opts, EngineRig::layout());
      engine.initialize();
      for (u32 id = 0; id < kNumSubgroups; ++id) {
        engine.deposit_gradients_async(0, id, true, true);
      }
      engine.wait_gradient_io();

      log.arm(kNumSubgroups, execution == "graph"
                                 ? std::chrono::milliseconds(20000)
                                 : std::chrono::milliseconds(300));
      engine.run_update(0);
      for (u32 p = 0; p < kNumSubgroups; ++p) {
        const std::size_t read = log.at("R" + Subgroup::key(0, p));
        if (execution == "linear") {
          if (p < ahead + 2) continue;
          EXPECT_LT(log.at("W" + Subgroup::key(0, p - ahead - 2)), read)
              << "read of position " << p;
        } else {
          for (u32 q = 0; q < kNumSubgroups; ++q) {
            EXPECT_LT(read, log.at("W" + Subgroup::key(0, q)))
                << "read " << p << " vs write " << q;
          }
        }
      }
    }
  }
}

// --- Graph mode over a real async tier --------------------------------------

// Forwards to an inner tier and counts how the scheduler drives it: blocking
// write() calls against write_async() submissions. A nonzero
// `fail_async_write` makes that write_async (1-based) fail without reaching
// the inner tier.
class CountingTier final : public StorageTier {
 public:
  CountingTier(std::shared_ptr<StorageTier> inner, u64 fail_async_write)
      : inner_(std::move(inner)), fail_async_write_(fail_async_write) {}

  const std::string& name() const override { return inner_->name(); }
  void write(const std::string& key, std::span<const u8> data,
             u64 sim_bytes = 0) override {
    ++writes;
    inner_->write(key, data, sim_bytes);
  }
  void read(const std::string& key, std::span<u8> out,
            u64 sim_bytes = 0) override {
    inner_->read(key, out, sim_bytes);
  }
  bool exists(const std::string& key) const override {
    return inner_->exists(key);
  }
  u64 object_size(const std::string& key) const override {
    return inner_->object_size(key);
  }
  void erase(const std::string& key) override { inner_->erase(key); }
  f64 read_bandwidth() const override { return inner_->read_bandwidth(); }
  f64 write_bandwidth() const override { return inner_->write_bandwidth(); }
  bool supports_async() const override { return inner_->supports_async(); }
  void write_async(const std::string& key, std::span<const u8> data,
                   u64 sim_bytes, AsyncDone done) override {
    if (++async_writes == fail_async_write_) {
      done(std::make_exception_ptr(std::runtime_error("injected failure")));
      return;
    }
    inner_->write_async(key, data, sim_bytes, std::move(done));
  }
  void read_async(const std::string& key, std::span<u8> out, u64 sim_bytes,
                  AsyncDone done) override {
    inner_->read_async(key, out, sim_bytes, std::move(done));
  }

  std::atomic<u64> writes{0};
  std::atomic<u64> async_writes{0};

 private:
  std::shared_ptr<StorageTier> inner_;
  u64 fail_async_write_;
};

// Param = force_fallback: io_uring when the kernel offers it, the
// pread/pwrite worker pool always.
class OffloadEngineUringTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (!GetParam() && !AsyncFileBackend::kernel_supports_uring()) {
      GTEST_SKIP() << "kernel refuses io_uring; fallback variant covers this";
    }
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           ("mlpo_engine_" + std::string(GetParam() ? "fb_" : "ur_") +
            info->name() + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Graph-mode engine over one UringFileTier path. Members are declared so
  /// the engine goes first and the tier last.
  struct Stack {
    Stack(const std::filesystem::path& dir, bool force_fallback,
          u64 fail_async_write) {
      UringFileTier::Options file_opts;
      file_opts.force_fallback = force_fallback;
      tier = std::make_shared<CountingTier>(
          std::make_shared<UringFileTier>("nvme", dir, file_opts),
          fail_async_write);
      vtier.add_path(tier);
      IoScheduler::Config cfg;
      cfg.queue_depth = 128;
      io = std::make_unique<IoScheduler>(clock, &vtier, nullptr, nullptr, cfg);
      EngineContext ctx;
      ctx.clock = &clock;
      ctx.vtier = &vtier;
      ctx.io = io.get();
      ctx.grads = &grads;
      EngineOptions opts = EngineRig::fast_options(EngineOptions::mlp_offload());
      opts.multipath = false;
      opts.execution = "graph";
      opts.graph_workers = 2;
      engine = std::make_unique<OffloadEngine>(ctx, opts, EngineRig::layout());
    }

    void deposit(u64 iter) {
      for (u32 id = 0; id < engine->num_subgroups(); ++id) {
        engine->deposit_gradients_async(iter, id, true, true);
      }
      engine->wait_gradient_io();
    }

    SimClock clock{20000.0};
    GradSource grads;
    std::shared_ptr<CountingTier> tier;
    VirtualTier vtier;
    std::unique_ptr<IoScheduler> io;
    std::unique_ptr<OffloadEngine> engine;
  };

  std::filesystem::path dir_;
};

u64 cpu_only_checksum(u64 iterations) {
  SimClock clock(20000.0);
  GradSource grads;
  CpuOnlyEngine::Options opts;
  opts.cpu_update_rate = 1e9;
  opts.convert.fp32_bytes_per_sec = 1e12;
  CpuOnlyEngine engine(clock, grads, EngineRig::layout(), opts);
  engine.initialize();
  for (u64 iter = 0; iter < iterations; ++iter) {
    engine.deposit_gradients(iter, true);
    engine.run_update(iter);
  }
  return engine.state_checksum();
}

TEST_P(OffloadEngineUringTest, StateWritesTakeTheAsyncPath) {
  constexpr u64 kIterations = 3;
  Stack s(dir_, GetParam(), 0);
  s.engine->initialize();
  EXPECT_EQ(s.tier->async_writes.load(), kNumSubgroups);
  for (u64 iter = 0; iter < kIterations; ++iter) {
    s.deposit(iter);
    s.engine->run_update(iter);
  }
  EXPECT_EQ(s.tier->writes.load(), 0u)
      << "a state write blocked a dispatch thread instead of going async";
  EXPECT_GT(s.tier->async_writes.load(), u64{kNumSubgroups})
      << "evictions must write back through write_async";
  EXPECT_EQ(s.engine->scratch_stats().bytes_in_use, 0u);
  EXPECT_EQ(s.engine->state_checksum(), cpu_only_checksum(kIterations));
}

TEST_P(OffloadEngineUringTest, FailedAsyncWriteFailsTheUpdateAndFreesStaging) {
  // The second eviction write of the first update fails.
  Stack s(dir_, GetParam(), kNumSubgroups + 2);
  s.engine->initialize();
  s.deposit(0);
  EXPECT_THROW(s.engine->run_update(0), std::runtime_error);
  EXPECT_EQ(s.engine->scratch_stats().bytes_in_use, 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, OffloadEngineUringTest,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "Fallback" : "Uring";
                         });

}  // namespace
}  // namespace mlpo
