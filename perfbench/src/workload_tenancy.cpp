// tenancy_3to1: two 40B MLP-Offload jobs on one shared substrate under a
// JobManager, at deficit-round-robin weights 3 (heavy) : 1 (light). A third
// identical job must be refused with AdmissionError before anything runs.
//
// JobManager::run takes a fixed iteration count, so a run is a sequence of
// rounds, each a fresh JobManager run to kRoundIterations. The round count
// follows from --seconds and a nominal round length, not from measured
// time, so every run of one --seconds pools the same mix of contended and
// solo iterations. Fair share is measured over
// the window in which both tenants are moving bytes: a sampler thread
// polls IoScheduler::tenant_stats() during JobManager::run, because over a
// whole round both jobs move the same bytes by construction.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "core/engine.hpp"
#include "runtime/job_manager.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr f64 kTimeScale = 300;
constexpr u32 kRoundIterations = 10;
constexpr u64 kElemScale = 65536;
constexpr f64 kNominalRoundSeconds = 5;
constexpr u32 kHeavyWeight = 3;
constexpr u32 kLightWeight = 1;
constexpr u32 kHeavyTenant = 1;  // JobManager tenant ids are 1-based
constexpr u32 kLightTenant = 2;
constexpr auto kSamplePeriod = std::chrono::milliseconds(10);

mlpo::JobSpec job(const std::string& name, u32 weight) {
  mlpo::JobSpec spec;
  spec.name = name;
  spec.weight = weight;
  spec.config.engine = mlpo::EngineOptions::preset("mlp_offload");
  spec.config.time_scale = kTimeScale;
  spec.config.elem_scale = kElemScale;
  spec.iterations = kRoundIterations;
  spec.warmup = kWarmupIterations;
  return spec;
}

mlpo::JobManagerConfig manager_config(bool with_third_job) {
  mlpo::JobManagerConfig cfg;
  cfg.jobs.push_back(job("heavy", kHeavyWeight));
  cfg.jobs.push_back(job("light", kLightWeight));
  if (with_third_job) cfg.jobs.push_back(job("third", kLightWeight));
  return cfg;
}

u64 tenant_bytes(const mlpo::IoScheduler& io, u32 tenant) {
  u64 bytes = 0;
  for (const auto& p : io.tenant_stats(tenant).priority) bytes += p.sim_bytes;
  return bytes;
}

/// Per-tenant bytes moved while both tenants were moving bytes, from a
/// series of cumulative (heavy, light) samples.
std::array<u64, 2> contended_bytes(
    const std::vector<std::array<u64, 2>>& samples) {
  std::size_t first = 0, last = 0;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    const bool both = samples[i][0] > samples[i - 1][0] &&
                      samples[i][1] > samples[i - 1][1];
    if (!both) continue;
    if (first == 0) first = i;
    last = i;
  }
  if (first == 0) return {0, 0};
  return {samples[last][0] - samples[first - 1][0],
          samples[last][1] - samples[first - 1][1]};
}

}  // namespace

Outcome run_tenancy_3to1(const RunOptions& opts, Tracer& tracer) {
  Outcome out;
  zero_layers(out);
  tracer.set_enabled(opts.trace);

  try {
    mlpo::JobManager rejected(manager_config(true));
    out.fail("a third 40B job was admitted; expected AdmissionError");
  } catch (const mlpo::AdmissionError&) {
  }

  // JobManager::run initializes the jobs itself, so set-up here is the
  // construction: admission, the shared substrate and the borrowed trainers.
  const f64 setup_s = repeated_setup_seconds([&] {
    const auto t0 = SteadyClock::now();
    Tracer::Span span = tracer.begin("setup", "runtime");
    mlpo::JobManager manager(manager_config(false));
    span.end();
    return seconds_since(t0);
  });

  std::vector<mlpo::IterationReport> reports;
  std::vector<f64> iter_s, update_s, traced, untraced;
  std::array<std::vector<f64>, 2> tenant_iter_s;
  std::array<u64, 2> contended{0, 0};
  f64 makespan = 0;
  IoSnapshot io_total;
  TierSnapshot nvme_total, pfs_total;
  std::vector<u64> checksums;
  f64 admitted_gb = 0, bw_err = 0;
  // A traced run needs at least one traced and one untraced round.
  const u32 rounds = std::max(
      opts.trace ? 2u : 1u,
      static_cast<u32>(std::lround(opts.seconds / kNominalRoundSeconds)));
  for (u32 round = 0; round < rounds; ++round) {
    const bool trace_this = opts.trace && round % 2 == 1;
    tracer.set_enabled(trace_this);
    tracer.set_iteration(static_cast<i64>(round));
    auto manager = std::make_unique<mlpo::JobManager>(manager_config(false));
    mlpo::ClusterSubstrate& substrate = manager->substrate();
    tracer.set_clock(&substrate.clock());

    std::vector<std::array<u64, 2>> samples;
    std::atomic<bool> done{false};
    std::thread sampler([&] {
      while (!done.load(std::memory_order_acquire)) {
        samples.push_back({tenant_bytes(substrate.io(), kHeavyTenant),
                           tenant_bytes(substrate.io(), kLightTenant)});
        std::this_thread::sleep_for(kSamplePeriod);
      }
    });
    std::vector<mlpo::JobResult> results;
    try {
      Tracer::Span span = tracer.begin("JobManager::run", "runtime");
      results = manager->run();
    } catch (...) {
      done.store(true, std::memory_order_release);
      sampler.join();
      throw;
    }
    done.store(true, std::memory_order_release);
    sampler.join();
    const auto window = contended_bytes(samples);
    contended[0] += window[0];
    contended[1] += window[1];

    f64 round_makespan = 0;
    for (const mlpo::JobResult& r : results) {
      const std::size_t t = r.tenant == kHeavyTenant ? 0 : 1;
      f64 job_seconds = 0;
      for (const auto& report : r.reports) {
        const f64 s = report.iteration_seconds();
        job_seconds += s;
        iter_s.push_back(s);
        update_s.push_back(report.update_seconds);
        tenant_iter_s[t].push_back(s);
        (trace_this ? traced : untraced).push_back(s);
        reports.push_back(report);
      }
      round_makespan = std::max(round_makespan, job_seconds);
      checksums.push_back(r.state_checksum);
    }
    makespan += round_makespan;

    io_total.add(substrate.io().stats());
    nvme_total += TierSnapshot::of(substrate.vtier().path(0));
    pfs_total += TierSnapshot::of(substrate.vtier().path(1));
    admitted_gb = static_cast<f64>(substrate.host_reserved_bytes()) / 1e9;
    std::vector<const mlpo::Engine*> engines;
    for (std::size_t j = 0; j < manager->job_count(); ++j) {
      mlpo::NodeSim& node = manager->job(j).cluster().node(0);
      for (u32 w = 0; w < node.worker_count(); ++w) {
        engines.push_back(&node.worker(w).engine());
      }
    }
    bw_err = bw_estimate_err_pct(engines, substrate.vtier());
    if (round == 0) {
      for (std::size_t j = 0; j < manager->job_count(); ++j) {
        out.note(manager->spec(j).name + ": " +
                 describe_working_set(
                     manager->job(j).cluster().node(0).worker(0).engine()));
      }
    }

    tracer.set_clock(nullptr);
    manager.reset();
  }
  tracer.set_enabled(opts.trace);
  tracer.set_iteration(-1);

  // --- end-to-end ---
  set_iteration_metrics(out, iter_s, update_s);
  set_tenant_metrics(out, {tenant_iter_s[0], tenant_iter_s[1]}, makespan,
                     {contended[0], contended[1]},
                     {kHeavyWeight, kLightWeight});
  out.set("setup_s", setup_s);
  out.set("peak_rss_mb", peak_rss_mb());

  // --- per layer ---
  set_report_layers(out, reports);
  set_io_layers(out, io_total, reports.size());
  out.set("tiers.nvme.read_gbps", nvme_total.read_gbps());
  out.set("tiers.nvme.write_gbps", nvme_total.write_gbps());
  out.set("tiers.pfs.read_gbps", pfs_total.read_gbps());
  out.set("tiers.pfs.write_gbps", pfs_total.write_gbps());
  out.set("policy.pfs_byte_share",
          ratio(static_cast<f64>(pfs_total.bytes()),
                static_cast<f64>(pfs_total.bytes() + nvme_total.bytes())));
  out.set("policy.bw_estimate_err_pct", bw_err);
  const f64 contended_total = static_cast<f64>(contended[0] + contended[1]);
  out.set("runtime.tenant.byte_share.heavy",
          ratio(static_cast<f64>(contended[0]), contended_total));
  out.set("runtime.tenant.byte_share.light",
          ratio(static_cast<f64>(contended[1]), contended_total));
  out.set("runtime.admitted_host_gb", admitted_gb);

  // --- correctness ---
  out.count_requests(io_total.submitted(), io_total.failed_or_cancelled());
  if (io_total.failed_or_cancelled() != 0) {
    out.fail(std::to_string(io_total.failed_or_cancelled()) +
             " I/O requests failed or were cancelled");
  }
  const mlpo::TrainerConfig cfg = job("reference", 1).config;
  const u32 world = cfg.testbed.gpus_per_node;
  std::vector<mlpo::ShardLayout> layouts;
  for (u32 rank = 0; rank < world; ++rank) {
    layouts.push_back(mlpo::make_shard_layout(
        cfg.model, world, static_cast<int>(rank), cfg.subgroup_params));
  }
  const auto reference_start = SteadyClock::now();
  const u64 expected =
      reference_checksum(layouts, cfg.elem_scale, cfg.engine.adam,
                         mlpo::GradSource{}, kRoundIterations);
  out.note("cpu_only reference computed in " +
           std::to_string(seconds_since(reference_start)) + " s");
  for (const u64 c : checksums) {
    if (c != expected) {
      out.fail("job state checksum " + std::to_string(c) +
               " != cpu_only reference " + std::to_string(expected));
    }
  }
  out.note("seed " + std::to_string(opts.seed) +
           " is not used: NodeSim builds its GradSource with the default seed");
  out.note(opts.workload + ": " + std::to_string(rounds) + " rounds of " +
           std::to_string(kRoundIterations) + " iterations (" +
           std::to_string(kWarmupIterations) + " warmup) per job, " +
           "time_scale " + std::to_string(static_cast<int>(kTimeScale)));

  if (opts.trace) {
    finish_traced_run(opts, tracer, out, cfg.subgroup_params / cfg.elem_scale,
                      traced, untraced);
  }
  return out;
}

}  // namespace perfbench
