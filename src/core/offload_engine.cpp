#include "core/offload_engine.hpp"

#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "policy/policy_registry.hpp"
#include "util/logging.hpp"

namespace mlpo {

struct OffloadEngine::UpdateSlot {
  u32 id = 0;
  bool cache_hit = false;
  f64 fetch_seconds = 0;
  u64 fetch_sim_bytes = 0;
  std::vector<f32> grads_fp32;
};

namespace {

// Per-priority scheduler telemetry: delta of the cumulative counters over
// one update phase.
void fold_io_stats(IterationReport& report, const IoScheduler::Stats& start,
                   const IoScheduler::Stats& end) {
  for (std::size_t c = 0; c < kIoPriorityCount; ++c) {
    const auto& s0 = start.priority[c];
    const auto& s1 = end.priority[c];
    auto& out = report.io_classes[c];
    out.requests = (s1.completed + s1.failed) - (s0.completed + s0.failed);
    out.cancelled = s1.cancelled - s0.cancelled;
    out.sim_bytes = s1.sim_bytes - s0.sim_bytes;
    out.queue_wait_seconds = s1.queue_wait_seconds - s0.queue_wait_seconds;
    out.service_seconds = s1.service_seconds - s0.service_seconds;
  }
  report.io_coalesced_batches =
      end.coalesced_batches - start.coalesced_batches;
  report.io_max_queue_depth = end.max_queue_depth;
}

}  // namespace

OffloadEngine::OffloadEngine(const EngineContext& ctx,
                             const EngineOptions& opts,
                             const ShardLayout& layout)
    : ctx_(ctx), opts_(opts), layout_(layout),
      placement_(make_placement_policy(opts.placement_policy)),
      order_policy_(make_update_order_policy(opts.update_order_policy)),
      use_host_cache_(order_policy_->uses_host_cache()),
      cache_(use_host_cache_ ? opts.host_cache_subgroups : 0) {
  opts_.validate_resolved(*order_policy_);
  if (ctx_.clock == nullptr || ctx_.vtier == nullptr || ctx_.io == nullptr ||
      ctx_.grads == nullptr) {
    throw std::invalid_argument(
        "OffloadEngine: clock, vtier, io, and grads are required");
  }
  if (ctx_.vtier->path_count() == 0) {
    throw std::invalid_argument("OffloadEngine: virtual tier has no paths");
  }
  // The scheduler's channels own the locking discipline; the engine flag
  // only documents intent. Surface a divergence loudly so an ablation
  // doesn't silently measure the wrong discipline.
  if (ctx_.io->config().tier_exclusive_locking !=
      opts_.tier_exclusive_locking) {
    MLPO_LOG_WARN << "OffloadEngine: EngineOptions::tier_exclusive_locking="
                  << opts_.tier_exclusive_locking
                  << " but the IoScheduler was built with "
                  << ctx_.io->config().tier_exclusive_locking
                  << "; the scheduler's setting governs tier locking";
  }

  subgroups_.reserve(layout_.subgroup_sizes.size());
  std::vector<u64> accum_elems;
  accum_elems.reserve(layout_.subgroup_sizes.size());
  for (std::size_t i = 0; i < layout_.subgroup_sizes.size(); ++i) {
    // Subgroup identity is the layout's global id (== the local index for
    // classic layouts): checkpoints and checksums stay comparable across
    // elastic re-shards. Engine-internal indexing stays local throughout.
    subgroups_.push_back(std::make_unique<Subgroup>(
        layout_.global_id(static_cast<u32>(i)), layout_.subgroup_sizes[i],
        opts_.elem_scale));
    accum_elems.push_back(subgroups_.back()->real_elems());
  }
  host_valid_.assign(subgroups_.size(), 0);
  accum_ = std::make_unique<GradAccumulator>(accum_elems);

  // Staging slab sized for 16 worst-case subgroup images: comfortably more
  // than the windowed shape's prefetch window + in-flight flush budget and
  // the frontier shape's bursts, so steady-state acquire() never blocks
  // and — the gated invariant — never falls back to the heap.
  std::size_t max_bytes = 4096;
  u64 max_elems = 1;
  for (const auto& sg : subgroups_) {
    max_bytes = std::max(max_bytes, sg->serialized_bytes());
    max_elems = std::max(max_elems, sg->real_elems());
  }
  max_serialized_bytes_ = max_bytes;
  BufferPool::Options pool_opts;
  pool_opts.slab_bytes = 16 * max_bytes;
  scratch_ = std::make_unique<BufferPool>(pool_opts);
  slots_.resize(subgroups_.size());
  for (auto& s : slots_) s.grads_fp32.reserve(max_elems);

  // The placement policy spans all paths under multipath, or just the
  // primary (NVMe) path for the single-path baseline.
  std::vector<f64> bws = ctx_.vtier->path_bandwidths();
  if (!opts_.multipath) bws.resize(1);
  placement_->bind(std::move(bws), static_cast<u32>(subgroups_.size()));

  // "graph" runs its DAG on an engine-owned pool (workers spawned once, so
  // the per-run Stats deltas are exact); "linear" runs on the caller's
  // thread and spawns nothing.
  if (opts_.execution == "graph") {
    graph_pool_ =
        std::make_unique<WorkStealingPool>(opts_.resolved_graph_workers());
  }
}

OffloadEngine::~OffloadEngine() {
  try {
    wait_gradient_io();
  } catch (...) {
    // Destruction must not throw; outstanding failures were the caller's to
    // collect via wait_gradient_io().
  }
}

std::string OffloadEngine::state_key(u32 id) const {
  // Tenant 0 keeps the historical unprefixed keys so single-job runs stay
  // bit-identical; co-tenants on a shared VirtualTier get their own key
  // namespace (two jobs reuse the same ranks).
  if (ctx_.tenant == 0) return Subgroup::key(ctx_.rank, id);
  return "t" + std::to_string(ctx_.tenant) + "/" + Subgroup::key(ctx_.rank, id);
}

std::string OffloadEngine::grad_key(u32 id) const {
  std::string key =
      "grad/" + std::to_string(ctx_.rank) + "/" + std::to_string(id);
  if (ctx_.tenant == 0) return key;
  return "t" + std::to_string(ctx_.tenant) + "/" + key;
}

void OffloadEngine::reset_slots(u32 n) {
  if (slots_.size() < n) slots_.resize(n);
  for (u32 i = 0; i < n; ++i) {
    UpdateSlot& s = slots_[i];
    s.id = 0;
    s.cache_hit = false;
    s.fetch_seconds = 0;
    s.fetch_sim_bytes = 0;
    // grads_fp32 keeps its reserved capacity — the reuse is the point.
  }
}

std::future<void> OffloadEngine::submit_io(IoRequest req) {
  req.tenant = ctx_.tenant;
  return ctx_.io->submit(std::move(req));
}

void OffloadEngine::poison_host_state(Subgroup& sg) {
  // Evicted host copies are poisoned so that any code path consuming stale
  // state (instead of re-fetching) fails loudly in tests.
  const f32 nan = std::numeric_limits<f32>::quiet_NaN();
  for (auto& v : sg.params()) v = nan;
  for (auto& v : sg.momentum()) v = nan;
  for (auto& v : sg.variance()) v = nan;
}

void OffloadEngine::initialize() {
  if (initialized_) throw std::logic_error("OffloadEngine: double initialize");
  IoBatch batch;
  for (u32 id = 0; id < num_subgroups(); ++id) {
    Subgroup& sg = *subgroups_[id];
    // Content is keyed on the world-size-independent identity (canonical
    // rank + global id for elastic layouts), so elastic restarts train on
    // bit-identical state; storage keys and policy slots stay local.
    Subgroup::deterministic_param_init(layout_.content_rank(), sg.id(),
                                       sg.params());
    const std::size_t path = placement_->path_for(id);
    // Pooled staging: acquire may block once >16 writes are in flight, but
    // the writes complete independently of this submitter, so the
    // backpressure resolves itself.
    auto buf = std::make_shared<BufferPool::Lease>(
        scratch_->acquire(sg.serialized_bytes()));
    sg.serialize(buf->bytes());
    poison_host_state(sg);

    IoRequest req = IoRequest::tier_write(state_key(id), path,
                                          sg.sim_state_bytes(),
                                          IoPriority::kCheckpoint);
    req.src = buf->bytes();
    // The hook owns the staging lease; the scheduler drops it once the
    // write has settled, whatever the outcome.
    req.on_complete = [buf](const IoResult&) {};
    batch.add(submit_io(std::move(req)));
  }
  batch.wait_all();
  initialized_ = true;
}

void OffloadEngine::deposit_gradients_async(u64 sample_index, u32 subgroup_id,
                                            bool first_micro_step,
                                            bool final_micro_step) {
  Subgroup& sg = *subgroups_.at(subgroup_id);
  const u64 sim_params = sg.sim_params();
  const u64 real_elems = sg.real_elems();

  IoRequest req = IoRequest::link_transfer(IoTarget::kD2HLink,
                                           grad_key(subgroup_id),
                                           sim_params * kFp16Bytes,
                                           IoPriority::kGradDeposit);
  req.work = [this, sample_index, subgroup_id, first_micro_step,
              final_micro_step, sim_params, real_elems](IoChannel& link)
      -> u64 {
    // (a) D2H transfer of the FP16 gradients produced on the GPU.
    link.transfer(sim_params * kFp16Bytes);
    BufferPool::Lease grad_lease = scratch_->acquire(real_elems * sizeof(u16));
    const std::span<u16> grads = grad_lease.as<u16>();
    ctx_.grads->generate_fp16(layout_.content_rank(),
                              layout_.global_id(subgroup_id), sample_index,
                              grads);
    // Accumulation fans out through the CPU pool internally; only the
    // link occupancy and per-deposit bookkeeping are serial here, which
    // matches a PCIe link's serial nature.
    if (first_micro_step) {
      accum_->store(subgroup_id, grads);
    } else {
      accum_->accumulate(subgroup_id, grads, ctx_.cpu_pool);
    }

    // (b)+(c) Baseline path only: upscale to FP32 on the host and flush the
    // FP32 gradients to third-level storage during the backward pass.
    // MLP-Offload skips this entirely (design principle 4). The flush is a
    // nested tier request so it queues on the path's write channel at
    // kGradDeposit priority; the link stays blocked until it lands, which
    // models the baseline's backward-phase I/O stall. The flush records
    // its own bytes/time — this request reports only the link transfer.
    if (!opts_.delayed_grad_conversion && final_micro_step) {
      ctx_.clock->sleep_for(opts_.convert.seconds_for_params(sim_params));
      BufferPool::Lease fp32 = scratch_->acquire(real_elems * sizeof(f32));
      accum_->upscale_into(subgroup_id, fp32.as<f32>(), ctx_.cpu_pool);

      IoRequest flush = IoRequest::tier_write(
          grad_key(subgroup_id), placement_->path_for(subgroup_id),
          sim_params * kFp32Bytes, IoPriority::kGradDeposit);
      flush.src = fp32.bytes();
      submit_io(std::move(flush)).get();  // lease outlives the wait
    }
    return sim_params * kFp16Bytes;
  };
  gradient_io_.add(submit_io(std::move(req)));
}

void OffloadEngine::wait_gradient_io() { gradient_io_.wait_all(); }

u64 OffloadEngine::fetch_subgroup(UpdateSlot& slot, IoChannel& chan) {
  Subgroup& sg = *subgroups_[slot.id];
  const std::string key = state_key(slot.id);
  if (ctx_.vtier->locate(key) == VirtualTier::npos) {
    throw std::runtime_error("OffloadEngine: subgroup " + key +
                             " not found on any tier");
  }

  BufferPool::Lease staging = scratch_->acquire(sg.serialized_bytes());
  chan.read(key, staging.bytes(), sg.sim_state_bytes());
  sg.deserialize(staging.bytes());
  u64 sim_read = sg.sim_state_bytes();

  if (!opts_.delayed_grad_conversion) {
    // DeepSpeed behaviour: the FP32 gradients flushed during the backward
    // pass ride back with the subgroup (16 B/param total fetch payload).
    slot.grads_fp32.resize(sg.real_elems());
    std::span<u8> bytes(reinterpret_cast<u8*>(slot.grads_fp32.data()),
                        slot.grads_fp32.size() * sizeof(f32));
    const u64 grad_sim = sg.sim_params() * kFp32Bytes;
    chan.read(grad_key(slot.id), bytes, grad_sim);
    chan.erase(grad_key(slot.id));
    sim_read += grad_sim;
  }
  return sim_read;
}

f64 OffloadEngine::charge_update_compute(u64 sim_params,
                                         f64 real_kernel_vseconds) {
  const f64 budget = static_cast<f64>(sim_params) / opts_.cpu_update_rate;
  if (budget > real_kernel_vseconds) {
    ctx_.clock->sleep_for(budget - real_kernel_vseconds);
  }
  // Accounting uses the calibrated cost model: wall-clock noise from the
  // emulation host (scheduler preemption amplified by the time scale) stays
  // in the phase wall time instead of being misattributed to compute.
  return budget;
}

// ---------------------------------------------------------------------------
// The update phase as a task graph.
//
// The iteration is a DAG: per subgroup a fetch -> compute -> {h2d, flush}
// chain, ranked by update-order position. The rank is a run-wide priority:
// flush:k, released when update:k finishes, starts ahead of every
// later-ranked compute already waiting, so each lazy flush overlaps the
// updates after it (Alg. 1) instead of bunching up at the end of the phase.
// Flush writes are plain span transfers, so an async tier keeps many of them
// in flight and settles each on its real completion.
//
// EngineOptions::execution picks the shape and the thread that runs it:
//   * "graph" — the frontier: no window, every root fetch is queued on the
//     IoScheduler at once (it sees the whole frontier and coalesces and
//     prioritizes across it), and compute overlaps freely on the engine's
//     work-stealing pool;
//   * "linear" — the paper's pipeline as window edges on the same DAG, run
//     on the caller's thread: a serial compute chain, the read for position
//     p released by compute(p - 1 - prefetch_ahead) (and ranked with it, so
//     it is issued right after that compute's h2d and flush, as Alg. 1 l.11
//     issues it), and a state read for p — with the compute after the one
//     that releases it — held until the flush of position
//     p - prefetch_ahead - 2 has landed. That last edge is the host-buffer
//     budget (§3.1: one subgroup prefetched, one updated, one flushed back)
//     that couples the read stream to the slower write stream and produces
//     Fig. 5's oscillating throughput; under "ascending" every position
//     flushes itself, so it also paces the eager flush.
//
// Bit-identity across shapes (held to by the equivalence suite): per-subgroup
// Adam math touches only that subgroup's state and gradients, and the shard
// checksum is a commutative sum — so the schedule can change without the
// results changing, provided no node ever reads stale state. Three races
// could violate that, and each is closed structurally:
//   * a cache hit being evicted (poisoned) before its compute runs — hits
//     are claimed at build time by *removing* the id from the cache
//     ("pin-by-erase"; insert() can then never select it as a victim), and
//     the subgroup's flush node re-inserts it after the update;
//   * a fetch racing the victim's own in-flight eviction write on a
//     separate read channel — eviction registers the victim in
//     graph_pending_flush_ in the same critical section that invalidates
//     the host copy, and a fetch finding its id there parks a continuation
//     that the flush's on_settle runs only after the write has landed;
//   * torn eviction bookkeeping — serialize + poison + host_valid_ clear +
//     cache erase + pending-flush registration happen under one
//     graph_mutex_ hold.

void OffloadEngine::submit_graph_fetch(
    UpdateSlot& slot, std::function<void(std::exception_ptr)> done) {
  Subgroup& sg = *subgroups_[slot.id];
  const std::string key = state_key(slot.id);
  // Routing hint only; the authoritative location check happens at
  // dispatch (an unknown key fails loudly from the work function).
  const std::size_t loc = ctx_.vtier->locate(key);

  IoRequest req = IoRequest::tier_read(
      key, sg.sim_state_bytes(), IoPriority::kDemandPrefetch,
      loc == VirtualTier::npos ? IoRequest::kAutoPath : loc);
  req.work = [this, &slot](IoChannel& chan) -> u64 {
    return fetch_subgroup(slot, chan);
  };
  // Completion feeds the policy's bandwidth feedback: service time includes
  // the lock hand-off, matching how the paper's model sees path contention.
  req.on_complete = [this, &slot, loc](const IoResult& r) {
    slot.fetch_seconds = r.service_seconds;
    slot.fetch_sim_bytes = r.sim_bytes;
    placement_->observe(loc == VirtualTier::npos ? 0 : loc, r.sim_bytes,
                        r.service_seconds, r.queue_wait_seconds);
  };
  req.on_settle = [done = std::move(done)](std::exception_ptr e) {
    done(std::move(e));
  };
  submit_io(std::move(req));
}

void OffloadEngine::graph_fetch(TaskContext& tc, UpdateSlot& slot) {
  if (slot.cache_hit) {
    if (opts_.delayed_grad_conversion) return;  // state and grads host-resident
    // Baseline gradient path: the optimizer state is cached but this
    // subgroup's FP32 gradients were flushed during the backward pass and
    // must come back (4 B/param) before the update.
    Subgroup& sg = *subgroups_[slot.id];
    const std::string gkey = grad_key(slot.id);
    const std::size_t loc = ctx_.vtier->locate(gkey);
    if (loc == VirtualTier::npos) {
      throw std::runtime_error("OffloadEngine: gradients missing for " + gkey);
    }
    const u64 grad_sim = sg.sim_params() * kFp32Bytes;
    auto done = tc.defer();
    IoRequest req = IoRequest::tier_read(gkey, grad_sim,
                                         IoPriority::kDemandPrefetch, loc);
    req.work = [&slot, &sg, gkey, grad_sim](IoChannel& chan) -> u64 {
      slot.grads_fp32.resize(sg.real_elems());
      std::span<u8> bytes(reinterpret_cast<u8*>(slot.grads_fp32.data()),
                          slot.grads_fp32.size() * sizeof(f32));
      chan.read(gkey, bytes, grad_sim);
      chan.erase(gkey);
      return grad_sim;
    };
    req.on_complete = [&slot](const IoResult& r) {
      slot.fetch_seconds = r.service_seconds;
      slot.fetch_sim_bytes = r.sim_bytes;
    };
    req.on_settle = [done](std::exception_ptr e) { done(std::move(e)); };
    submit_io(std::move(req));
    return;
  }

  auto done = tc.defer();
  {
    MutexLock lock(graph_mutex_);
    const auto it = graph_pending_flush_.find(slot.id);
    if (it != graph_pending_flush_.end()) {
      // This subgroup's eviction write is still in flight: reading the
      // tier now could return the pre-update image (the read and write
      // channels of a path are not ordered against each other). Park the
      // fetch; the flush's settle hook runs it once the write has landed.
      // The continuation runs inside that hook, which must not throw — a
      // failed re-submit is converted into this node's failure instead.
      it->second.push_back([this, &slot, done] {
        try {
          submit_graph_fetch(slot, done);
        } catch (...) {
          done(std::current_exception());
        }
      });
      return;
    }
  }
  submit_graph_fetch(slot, std::move(done));
}

void OffloadEngine::graph_compute(TaskContext& tc, UpdateSlot& slot,
                                  std::vector<SubgroupTrace>& traces) {
  (void)tc;
  Subgroup& sg = *subgroups_[slot.id];
  SubgroupTrace& trace = traces[slot.id];

  if (slot.cache_hit) {
    MutexLock lock(graph_mutex_);
    if (!host_valid_[slot.id]) {
      // Structurally impossible (pinned hits cannot be evicted); kept as
      // a loud tripwire against consuming a poisoned, mid-flush subgroup.
      throw std::logic_error(
          "OffloadEngine: cached subgroup evicted before use");
    }
  } else {
    MutexLock lock(graph_mutex_);
    host_valid_[slot.id] = 1;
  }
  trace.host_cache_hit = slot.cache_hit;
  trace.read_seconds = slot.fetch_seconds;
  trace.sim_bytes_read = slot.fetch_sim_bytes;

  // Gradients: delayed in-place FP16->FP32 conversion (Alg. 1 l.6), or,
  // for the baseline, the FP32 gradients arrived with the fetch.
  SimTimer kernel_timer(*ctx_.clock);
  if (opts_.delayed_grad_conversion) {
    slot.grads_fp32.resize(sg.real_elems());
    accum_->upscale_into(slot.id, slot.grads_fp32, ctx_.cpu_pool);
    ctx_.clock->sleep_for(opts_.convert.seconds_for_params(sg.sim_params()));
  }
  // cpu_update_kernel (Alg. 1 l.7): the real Adam math on the scale-reduced
  // arrays, then the residual simulated compute charge.
  sg.set_step(sg.step() + 1);
  adam_update(opts_.adam, sg.params(), sg.momentum(), sg.variance(),
              slot.grads_fp32, sg.step(), ctx_.cpu_pool);
  trace.compute_seconds =
      charge_update_compute(sg.sim_params(), kernel_timer.elapsed());
}

void OffloadEngine::graph_h2d(TaskContext& tc, UpdateSlot& slot) {
  // async_h2d_transfer of the downscaled FP16 parameters (Alg. 1 l.8). Only
  // the link time is modelled; the GPU-side copy has no observable state.
  Subgroup& sg = *subgroups_[slot.id];
  auto done = tc.defer();
  IoRequest h2d = IoRequest::link_transfer(
      IoTarget::kH2DLink, state_key(slot.id), sg.sim_fp16_param_bytes(),
      IoPriority::kDemandPrefetch);
  h2d.on_settle = [done](std::exception_ptr e) { done(std::move(e)); };
  submit_io(std::move(h2d));
}

void OffloadEngine::graph_flush(TaskContext& tc, UpdateSlot& slot,
                                std::vector<SubgroupTrace>& traces) {
  u32 victim = slot.id;
  std::size_t buf_bytes = 0;
  // Acquire the staging lease BEFORE graph_mutex_: a blocking acquire
  // under the lock could deadlock against an earlier flush whose settle
  // hook must take the lock (drain) before its own lease is released. The
  // victim is unknown until we hold the lock, so lease the worst case.
  BufferPool::Lease lease = scratch_->acquire(max_serialized_bytes_);
  {
    MutexLock lock(graph_mutex_);
    if (use_host_cache_) {
      host_valid_[slot.id] = 1;
      const auto evicted = cache_.insert(slot.id);
      if (!evicted) return;  // stays cached; lease releases on scope exit
      victim = *evicted;
    }
    // Atomic eviction bookkeeping: choose the victim, capture its host
    // copy, invalidate it, and register the in-flight flush in one hold —
    // a concurrent fetch of the victim either sees none of this or parks
    // on the pending entry, never a half-evicted state.
    Subgroup& v = *subgroups_[victim];
    buf_bytes = v.serialized_bytes();
    v.serialize(lease.bytes().subspan(0, buf_bytes));
    poison_host_state(v);
    host_valid_[victim] = 0;
    cache_.erase(victim);
    graph_pending_flush_[victim];
  }
  const auto buf = std::make_shared<BufferPool::Lease>(std::move(lease));

  auto done = tc.defer();
  const auto drain = [this, victim] {
    std::vector<std::function<void()>> parked;
    {
      MutexLock lock(graph_mutex_);
      const auto it = graph_pending_flush_.find(victim);
      if (it != graph_pending_flush_.end()) {
        parked = std::move(it->second);
        graph_pending_flush_.erase(it);
      }
    }
    for (auto& continuation : parked) continuation();
  };

  // Any failure from here on must still drain the pending entry we just
  // registered, or a fetch parked on it would hang the run.
  try {
    const std::size_t path = placement_->path_for(victim);  // Alg. 1 l.9
    const u64 sim = subgroups_[victim]->sim_state_bytes();
    IoRequest req = IoRequest::tier_write(state_key(victim), path, sim,
                                          IoPriority::kLazyFlush);
    req.src = std::span<const u8>(buf->data(), buf_bytes);
    req.on_complete = [this, buf, victim, path, sim,
                       &traces](const IoResult& r) {
      placement_->observe(path, sim, r.service_seconds, r.queue_wait_seconds);
      traces[victim].write_seconds += r.service_seconds;
      traces[victim].sim_bytes_written += sim;
    };
    req.on_settle = [drain, done](std::exception_ptr e) {
      // The write has landed (or definitively failed); releasing parked
      // fetches of the victim is now safe — and mandatory, a parked fetch
      // left unreleased would hang the run.
      drain();
      done(std::move(e));
    };
    submit_io(std::move(req));
  } catch (...) {
    drain();
    done(std::current_exception());
  }
}

IterationReport OffloadEngine::run_update(u64 iteration) {
  if (!initialized_) {
    throw std::logic_error("OffloadEngine: run_update before initialize");
  }
  const f64 phase_start = ctx_.clock->now();
  const IoScheduler::Stats io_stats_start = ctx_.io->tenant_stats(ctx_.tenant);
  const u32 n = num_subgroups();

  placement_->rebalance();
  const std::vector<u32> residents = cache_.resident();
  const std::vector<u32> order =
      order_policy_->order(n, iteration, residents);
  validate_order_permutation(order, n, order_policy_->name());

  std::vector<SubgroupTrace> traces(n);
  for (u32 id = 0; id < n; ++id) traces[id].subgroup_id = id;
  reset_slots(n);
  std::vector<UpdateSlot>& slots = slots_;

  // Build the DAG while still single-threaded. Cache hits are claimed and
  // pinned here (see the pin-by-erase note above); everything in the cache
  // at this point is lazy-flush residue from the previous iteration, so
  // after this loop the cache is empty and refills as flush nodes run.
  const bool windowed = graph_pool_ == nullptr;
  const u32 window = 1 + opts_.prefetch_ahead;
  std::vector<u32> compute_at(n);
  std::vector<u32> flush_at(n);
  TaskGraph graph;
  for (u32 pos = 0; pos < n; ++pos) {
    UpdateSlot& slot = slots[pos];
    slot.id = order[pos];
    if (use_host_cache_ && host_valid_[slot.id] && cache_.contains(slot.id)) {
      slot.cache_hit = true;
      cache_.erase(slot.id);
    }
    const std::string tag = std::to_string(slot.id);
    const u32 compute =
        graph.add_node(NodeKind::kCompute, "update:" + tag, pos,
                       [this, &slot, &traces](TaskContext& tc) {
                         graph_compute(tc, slot, traces);
                       });
    compute_at[pos] = compute;
    if (windowed && pos > 0) graph.add_edge(compute_at[pos - 1], compute);
    if (!slot.cache_hit || !opts_.delayed_grad_conversion) {
      const bool gated = windowed && pos >= window;
      const u32 fetch = graph.add_node(
          slot.cache_hit ? NodeKind::kGradDeposit : NodeKind::kFetch,
          (slot.cache_hit ? "grad:" : "fetch:") + tag,
          gated ? pos - window : pos,
          [this, &slot](TaskContext& tc) { graph_fetch(tc, slot); });
      graph.add_edge(fetch, compute);
      if (gated) {
        graph.add_edge(compute_at[pos - window], fetch);
        if (!slot.cache_hit && pos > window) {
          // The budget stalls the pipeline, not just this read: the next
          // compute waits on the same flush, so the read is still issued
          // before it starts, as Alg. 1 l.11 issues it.
          graph.add_edge(flush_at[pos - window - 1], fetch);
          graph.add_edge(flush_at[pos - window - 1],
                         compute_at[pos - window + 1]);
        }
      }
    }
    const u32 h2d =
        graph.add_node(NodeKind::kCompute, "h2d:" + tag, pos,
                       [this, &slot](TaskContext& tc) { graph_h2d(tc, slot); });
    graph.add_edge(compute, h2d);
    const u32 flush = graph.add_node(NodeKind::kFlush, "flush:" + tag, pos,
                                     [this, &slot, &traces](TaskContext& tc) {
                                       graph_flush(tc, slot, traces);
                                     });
    graph.add_edge(compute, flush);
    flush_at[pos] = flush;
  }

  // run() returns (or rethrows) only after every node — including deferred
  // IO completions — has settled, so no node outlives slots/traces. Parked
  // continuations are drained by their flush's settle hook on every path.
  const GraphExecutor::Stats stats =
      GraphExecutor(graph_pool_.get()).run(graph, [this] {
    // First failure: abandon queued demand reads — they are safe to cancel
    // (re-fetchable on retry or restore), and on a fail-stopped tier each
    // would otherwise dispatch serially just to fail. Queued writes stay;
    // a flush may carry the only copy of an updated subgroup. Scoped to
    // this engine's tenant — neighbours' queued reads are untouched.
    ctx_.io->cancel_queued(IoPriority::kDemandPrefetch, ctx_.tenant);
  });

  IterationReport report;
  report.iteration = iteration;
  report.subgroups_processed = n;
  report.params_updated = layout_.shard_params;
  report.traces.reserve(n);
  for (u32 pos = 0; pos < n; ++pos) {
    if (slots[pos].cache_hit) ++report.host_cache_hits;
    const SubgroupTrace& t = traces[order[pos]];
    report.traces.push_back(t);
    report.sim_bytes_fetched += t.sim_bytes_read;
    report.sim_bytes_flushed += t.sim_bytes_written;
    report.fetch_seconds += t.read_seconds;
    report.flush_seconds += t.write_seconds;
    report.update_compute_seconds += t.compute_seconds;
  }
  report.update_seconds = ctx_.clock->now() - phase_start;
  fold_io_stats(report, io_stats_start, ctx_.io->tenant_stats(ctx_.tenant));
  // Delta since the previous update epilogue, so backward-phase deposit
  // churn lands in this iteration's report too.
  const BufferPool::Stats pool_now = scratch_->stats();
  report.pool_acquires = pool_now.acquires - pool_mark_.acquires;
  report.pool_heap_fallbacks =
      pool_now.heap_fallbacks - pool_mark_.heap_fallbacks;
  pool_mark_ = pool_now;
  report.graph_frontier_high_water = stats.frontier_high_water;
  report.graph_tasks_stolen = stats.tasks_stolen;
  report.graph_executor_idle_seconds = stats.idle_seconds;
  return report;
}

Subgroup OffloadEngine::snapshot_subgroup(u32 id) const {
  const Subgroup& sg = *subgroups_.at(id);
  if (host_valid_[id]) return sg;
  Subgroup copy(sg.id(), sg.sim_params(), sg.elem_scale());
  std::vector<u8> staging(copy.serialized_bytes());
  const std::string key = state_key(id);
  const std::size_t loc = ctx_.vtier->locate(key);
  if (loc == VirtualTier::npos) {
    throw std::runtime_error("snapshot_subgroup: " + key + " not on any tier");
  }
  // Untimed inspection read: bypass the throttle via the tier's peek path.
  ctx_.vtier->peek(key, staging);
  copy.deserialize(staging);
  return copy;
}

u64 OffloadEngine::state_checksum() const {
  u64 sum = 0;
  for (u32 id = 0; id < num_subgroups(); ++id) {
    sum += snapshot_subgroup(id).checksum();  // commutative on purpose
  }
  return sum;
}

Engine::Distribution OffloadEngine::distribution() const {
  Distribution dist;
  dist.path_sim_bytes.assign(ctx_.vtier->path_count(), 0);
  for (u32 id = 0; id < num_subgroups(); ++id) {
    const Subgroup& sg = *subgroups_[id];
    if (host_valid_[id]) {
      dist.host_sim_bytes += sg.sim_state_bytes();
      continue;
    }
    const std::size_t loc = ctx_.vtier->locate(state_key(id));
    if (loc != VirtualTier::npos) {
      dist.path_sim_bytes[loc] += sg.sim_state_bytes();
    }
  }
  return dist;
}

std::vector<u32> OffloadEngine::host_resident() const {
  return cache_.resident();
}

bool OffloadEngine::on_persistent_path(u32 id) const {
  if (host_valid_[id]) return false;
  const std::size_t loc = ctx_.vtier->locate(state_key(id));
  return loc != VirtualTier::npos && ctx_.vtier->path(loc).persistent();
}

void OffloadEngine::restore_state(u32 id, std::span<const u8> serialized) {
  Subgroup& sg = *subgroups_.at(id);
  sg.deserialize(serialized);  // validates header identity
  // Write through to the assigned path; the restored image becomes the
  // authoritative copy and any cached state is dropped. Checkpoint-class
  // traffic: it must not starve demand fetches of a concurrent update.
  const std::size_t path = placement_->path_for(id);
  IoRequest req = IoRequest::tier_write(state_key(id), path,
                                        sg.sim_state_bytes(),
                                        IoPriority::kCheckpoint);
  req.src = serialized;
  submit_io(std::move(req)).get();  // span only lives until return
  poison_host_state(sg);
  host_valid_[id] = 0;
  cache_.erase(id);
}

}  // namespace mlpo
