// mlpo_40b and zero3_40b: the paper's system and its DeepSpeed ZeRO-3
// baseline, each a single-node Trainer on Testbed-1 (4 workers) over the
// emulated NVMe (and, for MLP-Offload, PFS) tiers.
//
// Real CPU cost leaks into virtual time in proportion to time_scale (each
// real microsecond of runtime work is billed as time_scale virtual
// microseconds), so the scale is part of each workload's definition and
// is fixed here, never taken from the environment. elem_scale sets how
// much real work an iteration does; the coarse 65536 keeps that leak, and
// with it the run-to-run spread, small without changing the modelled
// timing.
#include <memory>

#include "core/engine.hpp"
#include "resilience/recovery_driver.hpp"
#include "runtime/trainer.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr f64 kMlpoTimeScale = 200;
constexpr f64 kZero3TimeScale = 600;
constexpr mlpo::u64 kElemScale = 65536;

IoSnapshot node_io(mlpo::NodeSim& node) {
  IoSnapshot s;
  for (u32 w = 0; w < node.worker_count(); ++w) {
    s.add(node.worker(w).io().stats());
  }
  return s;
}

TierSnapshot path_snapshot(mlpo::VirtualTier& vtier, std::size_t path) {
  return path < vtier.path_count() ? TierSnapshot::of(vtier.path(path))
                                   : TierSnapshot{};
}

Outcome run_trainer(const RunOptions& opts, Tracer& tracer,
                    const mlpo::TrainerConfig& cfg) {
  Outcome out;
  zero_layers(out);

  // Set-up: construct + initialize, repeatedly; the last stack runs.
  std::unique_ptr<mlpo::Trainer> trainer;
  tracer.set_enabled(opts.trace);
  const f64 setup_s = repeated_setup_seconds([&] {
    tracer.set_clock(nullptr);
    trainer.reset();
    const auto t0 = SteadyClock::now();
    Tracer::Span span = tracer.begin("setup", "runtime");
    trainer = std::make_unique<mlpo::Trainer>(cfg);
    tracer.set_clock(&trainer->clock());
    {
      Tracer::Span init = tracer.begin("Trainer::initialize", "runtime");
      trainer->initialize();
    }
    span.end();
    return seconds_since(t0);
  });

  mlpo::ClusterSim& cluster = trainer->cluster();
  mlpo::NodeSim& node = cluster.node(0);
  mlpo::VirtualTier& vtier = node.vtier();
  const IoSnapshot io_start = node_io(node);
  IoSnapshot io_mark;  // after warmup, like the tier marks
  TierSnapshot nvme_mark, pfs_mark;

  std::vector<mlpo::IterationReport> reports;
  std::vector<f64> iter_s, update_s, traced, untraced;
  const auto start = SteadyClock::now();
  u64 k = 0;
  for (;; ++k) {
    if (k == kWarmupIterations) {
      io_mark = node_io(node);
      nvme_mark = path_snapshot(vtier, 0);
      pfs_mark = path_snapshot(vtier, 1);
    }
    // A traced run needs at least one traced and one untraced iteration.
    if (k > kWarmupIterations && seconds_since(start) >= opts.seconds &&
        (!opts.trace || !traced.empty())) {
      break;
    }
    // Traced runs alternate traced and untraced iterations, so the
    // tracing overhead is measured on one stack under one load.
    const bool trace_this = opts.trace && k % 2 == 1;
    tracer.set_enabled(trace_this);
    tracer.set_iteration(static_cast<i64>(k));
    mlpo::IterationReport r;
    {
      Tracer::Span span = tracer.begin("ClusterSim::run_iteration", "runtime");
      r = cluster.run_iteration(k);
    }
    if (k < kWarmupIterations) continue;
    iter_s.push_back(r.iteration_seconds());
    update_s.push_back(r.update_seconds);
    (trace_this ? traced : untraced).push_back(r.iteration_seconds());
    reports.push_back(std::move(r));
  }
  tracer.set_enabled(opts.trace);
  tracer.set_iteration(-1);
  const u64 iterations = k;

  // --- end-to-end ---
  set_iteration_metrics(out, iter_s, update_s);
  const IoSnapshot io_end = node_io(node);
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
  const TierSnapshot nvme = path_snapshot(vtier, 0).since(nvme_mark);
  const TierSnapshot pfs = path_snapshot(vtier, 1).since(pfs_mark);
  out.set("tiers.nvme.read_gbps", nvme.read_gbps());
  out.set("tiers.nvme.write_gbps", nvme.write_gbps());
  out.set("tiers.pfs.read_gbps", pfs.read_gbps());
  out.set("tiers.pfs.write_gbps", pfs.write_gbps());
  out.set("policy.pfs_byte_share",
          ratio(static_cast<f64>(pfs.bytes()),
                static_cast<f64>(pfs.bytes() + nvme.bytes())));
  std::vector<const mlpo::Engine*> engines;
  for (u32 w = 0; w < node.worker_count(); ++w) {
    engines.push_back(&node.worker(w).engine());
  }
  out.set("policy.bw_estimate_err_pct", bw_estimate_err_pct(engines, vtier));
  out.note(describe_working_set(node.worker(0).engine()));

  // --- correctness ---
  const IoSnapshot run_io = io_end.since(io_start);
  out.count_requests(run_io.submitted(), run_io.failed_or_cancelled());
  if (run_io.failed_or_cancelled() != 0) {
    out.fail(std::to_string(run_io.failed_or_cancelled()) +
             " I/O requests failed or were cancelled");
  }
  const u64 checksum = mlpo::cluster_state_checksum(cluster);
  const u32 world = cfg.testbed.gpus_per_node;
  tracer.set_clock(nullptr);
  trainer.reset();

  std::vector<mlpo::ShardLayout> layouts;
  for (u32 rank = 0; rank < world; ++rank) {
    layouts.push_back(mlpo::make_shard_layout(
        cfg.model, world, static_cast<int>(rank), cfg.subgroup_params));
  }
  const auto reference_start = SteadyClock::now();
  const u64 expected =
      reference_checksum(layouts, cfg.elem_scale, cfg.engine.adam,
                         mlpo::GradSource{}, iterations);
  out.note("cpu_only reference computed in " +
           std::to_string(seconds_since(reference_start)) + " s");
  if (checksum != expected) {
    out.fail("state checksum " + std::to_string(checksum) +
             " != cpu_only reference " + std::to_string(expected) +
             " after " + std::to_string(iterations) + " iterations");
  }
  out.note("seed " + std::to_string(opts.seed) +
           " is not used: NodeSim builds its GradSource with the default seed");
  out.note(opts.workload + ": " + std::to_string(iterations) +
           " iterations (" + std::to_string(kWarmupIterations) +
           " warmup), time_scale " +
           std::to_string(static_cast<int>(cfg.time_scale)) + ", checksum " +
           std::to_string(checksum));

  if (opts.trace) {
    finish_traced_run(opts, tracer, out, cfg.subgroup_params / cfg.elem_scale,
                      traced, untraced);
  }
  return out;
}

}  // namespace

Outcome run_mlpo_40b(const RunOptions& opts, Tracer& tracer) {
  mlpo::TrainerConfig cfg;  // 40B, Testbed-1, one node, sim storage
  cfg.engine = mlpo::EngineOptions::preset("mlp_offload");
  cfg.time_scale = kMlpoTimeScale;
  cfg.elem_scale = kElemScale;
  cfg.attach_pfs = true;
  return run_trainer(opts, tracer, cfg);
}

Outcome run_zero3_40b(const RunOptions& opts, Tracer& tracer) {
  mlpo::TrainerConfig cfg;
  cfg.engine = mlpo::EngineOptions::preset("deepspeed_zero3");
  cfg.time_scale = kZero3TimeScale;
  cfg.elem_scale = kElemScale;
  cfg.attach_pfs = false;  // the baseline offloads to node-local NVMe only
  return run_trainer(opts, tracer, cfg);
}

}  // namespace perfbench
