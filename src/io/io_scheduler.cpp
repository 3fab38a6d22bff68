#include "io/io_scheduler.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "tiers/failstop_tier.hpp"
#include "tiers/storage_tier.hpp"

namespace mlpo {

const char* io_priority_name(IoPriority priority) {
  switch (priority) {
    case IoPriority::kDemandPrefetch: return "demand-prefetch";
    case IoPriority::kGradDeposit: return "grad-deposit";
    case IoPriority::kLazyFlush: return "lazy-flush";
    case IoPriority::kCheckpoint: return "checkpoint";
  }
  return "unknown";
}

IoScheduler::IoScheduler(const SimClock& clock, VirtualTier* vtier,
                         RateLimiter* d2h, RateLimiter* h2d, Config cfg)
    : clock_(&clock), vtier_(vtier), cfg_(std::move(cfg)) {
  if (cfg_.queue_depth == 0) {
    throw std::invalid_argument("IoScheduler: queue_depth must be > 0");
  }
  if (cfg_.fair_share_quantum_bytes == 0) {
    throw std::invalid_argument(
        "IoScheduler: fair_share_quantum_bytes must be > 0");
  }
  if (cfg_.d2h_bandwidth > 0) {
    if (d2h != nullptr || h2d != nullptr) {
      throw std::invalid_argument(
          "IoScheduler: Config::d2h_bandwidth asks for owned link limiters "
          "but caller limiters were also provided");
    }
    owned_d2h_ = std::make_unique<RateLimiter>(clock, cfg_.d2h_bandwidth);
    owned_h2d_ = std::make_unique<RateLimiter>(clock, cfg_.d2h_bandwidth);
    d2h = owned_d2h_.get();
    h2d = owned_h2d_.get();
  }
  tier_paths_ = vtier_ != nullptr ? vtier_->path_count() : 0;
  queues_.reserve(2 * tier_paths_ + 3);
  for (std::size_t p = 0; p < tier_paths_; ++p) {
    queues_.push_back(std::make_unique<ChannelQueue>(
        IoChannel(*vtier_, p, IoOp::kRead, cfg_.tier_exclusive_locking,
                  cfg_.worker_id)));
    queues_.push_back(std::make_unique<ChannelQueue>(
        IoChannel(*vtier_, p, IoOp::kWrite, cfg_.tier_exclusive_locking,
                  cfg_.worker_id)));
  }
  queues_.push_back(std::make_unique<ChannelQueue>(IoChannel("d2h", d2h)));
  queues_.push_back(std::make_unique<ChannelQueue>(IoChannel("h2d", h2d)));
  queues_.push_back(std::make_unique<ChannelQueue>(IoChannel("external")));
  for (auto& q : queues_) {
    q->worker = std::thread([this, queue = q.get()] { dispatch_loop(*queue); });
  }
}

IoScheduler::IoScheduler(const SimClock& clock, VirtualTier* vtier,
                         RateLimiter* d2h, RateLimiter* h2d)
    : IoScheduler(clock, vtier, d2h, h2d, Config{}) {}

IoScheduler::IoScheduler(const SimClock& clock, Config cfg)
    : IoScheduler(clock, nullptr, nullptr, nullptr, std::move(cfg)) {}

IoScheduler::IoScheduler(const SimClock& clock)
    : IoScheduler(clock, nullptr, nullptr, nullptr, Config{}) {}

IoScheduler::~IoScheduler() {
  // Async-capable backends settle requests from their own completion
  // threads; wait for every submitted request to settle before tearing the
  // channel machinery down (sync dispatches settle inline, so for them
  // this returns immediately once the queues empty below — but queued work
  // is still dispatched after closed_ is set, exactly as before).
  drain();
  closed_.store(true, std::memory_order_release);
  const auto wake = [](ChannelQueue& q) {
    {
      MutexLock lk(q.mutex);  // publish `closed_` to parked waiters
    }
    q.not_empty.notify_all();
    q.not_full.notify_all();
  };
  for (auto& q : queues_) wake(*q);
  // Snapshot the lazily-created external channels under external_mutex_,
  // then wake and join outside it: tier_queues_ must not be iterated
  // unlocked (a racing external_channel_for may still be inserting until
  // its closed_ check lands), and joining under the lock would deadlock
  // against any dispatch thread calling back into the scheduler. closed_
  // is already set, so no new channel can be created after the snapshot.
  std::vector<ChannelQueue*> externals;
  {
    MutexLock lk(external_mutex_);
    externals.reserve(tier_queues_.size());
    for (auto& [tier, q] : tier_queues_) externals.push_back(q.get());
  }
  for (auto* q : externals) wake(*q);
  for (auto& q : queues_) q->worker.join();
  for (auto* q : externals) q->worker.join();
}

IoScheduler::ChannelQueue& IoScheduler::route(const IoRequest& req) {
  switch (req.target) {
    case IoTarget::kD2HLink: return *queues_[d2h_queue()];
    case IoTarget::kH2DLink: return *queues_[h2d_queue()];
    case IoTarget::kExternal:
      if (req.tier == nullptr) {
        if (!req.work) {
          throw std::invalid_argument(
              "IoScheduler: external request without a tier");
        }
        return *queues_[external_queue()];
      }
      return external_channel_for(req.tier);
    case IoTarget::kTierPath: {
      if (tier_paths_ == 0) {
        throw std::logic_error(
            "IoScheduler: tier-path request but no virtual tier attached");
      }
      std::size_t path = req.path;
      if (path == IoRequest::kAutoPath) {
        if (req.op == IoOp::kWrite) {
          throw std::invalid_argument(
              "IoScheduler: tier write requires an explicit path hint");
        }
        const std::size_t loc = vtier_->locate(req.key);
        // Unknown keys route to path 0; the dispatch fails there with the
        // tier's own "no such object" error, preserving the producer-side
        // error surface.
        path = loc == VirtualTier::npos ? 0 : loc;
      }
      if (path >= tier_paths_) {
        throw std::out_of_range("IoScheduler: path hint out of range");
      }
      return *queues_[req.op == IoOp::kRead ? read_queue(path)
                                            : write_queue(path)];
    }
  }
  throw std::logic_error("IoScheduler: unreachable target");
}

IoScheduler::ChannelQueue& IoScheduler::external_channel_for(
    StorageTier* tier) {
  MutexLock lk(external_mutex_);
  const auto it = tier_queues_.find(tier);
  if (it != tier_queues_.end()) return *it->second;
  if (closed_.load(std::memory_order_acquire)) {
    throw std::runtime_error("IoScheduler: submit after shutdown");
  }
  auto q = std::make_unique<ChannelQueue>(
      IoChannel("external/" + tier->name()));
  q->worker = std::thread([this, queue = q.get()] { dispatch_loop(*queue); });
  return *tier_queues_.emplace(tier, std::move(q)).first->second;
}

std::size_t IoScheduler::class_of(const IoRequest& req) const {
  return cfg_.strict_fifo ? 0 : static_cast<std::size_t>(req.priority);
}

u32 IoScheduler::weight_of(u32 tenant) const {
  const auto it = cfg_.tenant_weights.find(tenant);
  return it == cfg_.tenant_weights.end() ? 1u : std::max<u32>(1, it->second);
}

u64 IoScheduler::effective_bytes(const IoRequest& req) {
  if (req.sim_bytes != 0) return req.sim_bytes;
  return std::max<u64>(req.src.size(), req.dst.size());
}

std::future<void> IoScheduler::submit(IoRequest req) {
  ChannelQueue& q = route(req);
  const auto pri = static_cast<std::size_t>(req.priority);
  const u32 tenant = req.tenant;

  auto pending = std::make_unique<Pending>();
  pending->req = std::move(req);
  pending->enqueue_vtime = clock_->now();
  auto fut = pending->done.get_future();

  // A fail-stopped tenant's submission fails like an op against a dead
  // device: immediately, without ever occupying queue space another tenant
  // could use. The common single-job case pays one empty-map lookup.
  if (tenant_failed(tenant)) {
    settle(*pending,
           std::make_exception_ptr(FailStopError(
               "IoScheduler: tenant " + std::to_string(tenant) +
               " is fail-stopped (request \"" + pending->req.key + "\")")));
    return fut;
  }

  std::size_t depth_after = 0;
  std::size_t tenant_depth_after = 0;
  bool rejected = false;
  {
    MutexLock lk(q.mutex);
    // Backpressure is per tenant: this tenant blocks on its own backlog
    // but never on a neighbour's (whose deep queue must not block a light
    // tenant's submit). With one tenant the bound degenerates to the old
    // per-channel depth.
    const auto tenant_backlog = [&]() -> std::size_t {
      const auto it = q.tenants.find(tenant);
      return it == q.tenants.end() ? 0 : it->second.size;
    };
    while (!closed_.load(std::memory_order_acquire) &&
           tenant_backlog() >= cfg_.queue_depth) {
      q.not_full.wait(lk);
    }
    if (closed_.load(std::memory_order_acquire)) {
      rejected = true;
    } else {
      TenantQueues& tq = q.tenants[tenant];
      tq.classes[class_of(pending->req)].push_back(std::move(pending));
      ++tq.size;
      ++q.size;
      depth_after = q.size;
      tenant_depth_after = tq.size;
      // Count before the dispatcher can possibly settle this request (we
      // still hold q.mutex), so drain() never sees settled_ overtake a
      // stale submitted_ and return with work in flight. The per-tenant
      // ledgers live under drain_mutex_ (q.mutex -> drain_mutex_ nests;
      // nothing acquires a channel lock under drain_mutex_).
      submitted_.fetch_add(1, std::memory_order_acq_rel);
      {
        MutexLock dlk(drain_mutex_);
        ++tenant_submitted_[tenant];
      }
    }
  }
  if (rejected) {
    // Settled outside q.mutex: on_settle is an arbitrary callback (the
    // graph executor's completion edge) and must never run under a
    // channel lock.
    settle(*pending, std::make_exception_ptr(std::runtime_error(
                         "IoScheduler: submit after shutdown")));
    return fut;
  }
  // Stats land outside q.mutex so the global stats lock never nests inside
  // a channel lock (a fast dispatcher may transiently show completed >
  // submitted; the counters are monotonic and converge immediately).
  {
    MutexLock slk(stats_mutex_);
    ++stats_.priority[pri].submitted;
    stats_.max_queue_depth = std::max<u64>(stats_.max_queue_depth, depth_after);
    Stats& ts = tenant_stats_[tenant];
    ++ts.priority[pri].submitted;
    ts.max_queue_depth =
        std::max<u64>(ts.max_queue_depth, tenant_depth_after);
  }
  q.not_empty.notify_one();
  return fut;
}

std::size_t IoScheduler::cancel_all_queued() {
  return cancel_queued_matching(nullptr, nullptr);
}

std::size_t IoScheduler::cancel_queued(IoPriority priority) {
  return cancel_queued_matching(&priority, nullptr);
}

std::size_t IoScheduler::cancel_tenant_queued(u32 tenant) {
  return cancel_queued_matching(nullptr, &tenant);
}

std::size_t IoScheduler::cancel_queued(IoPriority priority, u32 tenant) {
  return cancel_queued_matching(&priority, &tenant);
}

std::size_t IoScheduler::cancel_queued_matching(const IoPriority* priority,
                                                const u32* tenant) {
  std::size_t flagged = 0;
  const auto sweep = [&](ChannelQueue& q) {
    MutexLock lk(q.mutex);
    for (auto& [tid, tq] : q.tenants) {
      if (tenant != nullptr && tid != *tenant) continue;
      // All classes are swept (not just the matching class index): under
      // strict_fifo every priority shares class 0, so the filter must look
      // at the request itself.
      for (auto& cls : tq.classes) {
        for (auto& p : cls) {
          if (priority != nullptr && p->req.priority != *priority) continue;
          if (p->req.token.cancelled()) continue;
          p->req.token.cancel();
          ++flagged;
        }
      }
    }
  };
  for (auto& q : queues_) sweep(*q);
  {
    MutexLock lk(external_mutex_);
    for (auto& [tier, q] : tier_queues_) sweep(*q);
  }
  return flagged;
}

void IoScheduler::fail_tenant(u32 tenant) {
  MutexLock lk(tenant_fail_mutex_);
  tenant_fail_[tenant].failed = true;
}

void IoScheduler::arm_tenant_fail(u32 tenant, f64 at_vtime) {
  MutexLock lk(tenant_fail_mutex_);
  tenant_fail_[tenant].fail_at_vtime = at_vtime;
}

bool IoScheduler::tenant_failed(u32 tenant) {
  MutexLock lk(tenant_fail_mutex_);
  return tenant_failed_locked(tenant);
}

bool IoScheduler::tenant_failed_locked(u32 tenant) {
  const auto it = tenant_fail_.find(tenant);
  if (it == tenant_fail_.end()) return false;
  TenantFailState& st = it->second;
  if (!st.failed && st.fail_at_vtime >= 0 &&
      clock_->now() >= st.fail_at_vtime) {
    st.failed = true;  // deadline latches on first traffic past it
  }
  return st.failed;
}

void IoScheduler::revive_tenant(u32 tenant) {
  MutexLock lk(tenant_fail_mutex_);
  tenant_fail_.erase(tenant);
}

IoScheduler::TenantMap::iterator IoScheduler::pick_tenant(ChannelQueue& q) {
  // Entries only exist while backlogged (erased when drained), so every
  // element of q.tenants is a candidate. One tenant = no arbitration: the
  // single-job scheduler takes exactly the pre-tenancy dispatch path.
  if (q.tenants.size() == 1) return q.tenants.begin();

  const auto head_cost = [](const TenantQueues& tq) -> i64 {
    for (const auto& cls : tq.classes) {
      if (!cls.empty()) {
        return static_cast<i64>(effective_bytes(cls.front()->req));
      }
    }
    return 0;  // unreachable while the entry is backlogged
  };

  // Deficit round-robin, weighted. The tenant under the cursor keeps the
  // channel while it can pay for its head request out of existing credit —
  // a weight-w tenant's quantum buys it a run of ~w quanta of bytes per
  // visit, which is where the weighting bites; rotating after every batch
  // would degenerate into unweighted alternation.
  {
    const auto cur = q.tenants.find(q.drr_cursor);
    if (cur != q.tenants.end() &&
        cur->second.deficit_bytes >= head_cost(cur->second)) {
      return cur;
    }
  }
  // Otherwise visit tenants cyclically from just past the cursor; a visit
  // tops the tenant's byte credit up by weight * quantum when it cannot
  // afford its head request, and the first tenant that can afford its
  // head takes the channel. Credit grows every round, so the scan
  // terminates; over a saturated channel each tenant's served bytes
  // converge to its weight share.
  for (;;) {
    auto it = q.tenants.upper_bound(q.drr_cursor);
    for (std::size_t visited = 0; visited < q.tenants.size(); ++visited) {
      if (it == q.tenants.end()) it = q.tenants.begin();
      TenantQueues& tq = it->second;
      const i64 cost = head_cost(tq);
      if (tq.deficit_bytes < cost) {
        tq.deficit_bytes += static_cast<i64>(cfg_.fair_share_quantum_bytes) *
                            static_cast<i64>(weight_of(it->first));
      }
      if (tq.deficit_bytes >= cost) {
        q.drr_cursor = it->first;
        return it;
      }
      ++it;
    }
  }
}

void IoScheduler::dispatch_loop(ChannelQueue& q) {
  for (;;) {
    std::vector<std::unique_ptr<Pending>> batch;
    {
      MutexLock lk(q.mutex);
      while (!closed_.load(std::memory_order_acquire) && q.size == 0) {
        q.not_empty.wait(lk);
      }
      if (q.size == 0) {
        if (closed_.load(std::memory_order_acquire)) return;
        continue;
      }
      const auto tenant_it = pick_tenant(q);
      TenantQueues& tq = tenant_it->second;
      // Strongest non-empty class of the chosen tenant dispatches first.
      auto* cls = &tq.classes[0];
      for (auto& c : tq.classes) {
        if (!c.empty()) {
          cls = &c;
          break;
        }
      }
      const auto pop_into_batch = [&] {
        // Served bytes draw the tenant's DRR credit down, whatever mode
        // picked it (the solo fast path leaves credit negative, which the
        // quantum top-up amortises if contention appears later).
        tq.deficit_bytes -=
            static_cast<i64>(effective_bytes(cls->front()->req));
        batch.push_back(std::move(cls->front()));
        cls->pop_front();
        --tq.size;
        --q.size;
      };
      pop_into_batch();
      // Small-transfer coalescing: same tenant, same class, same direction
      // by construction (one queue per direction); one lock lease for all.
      const IoRequest& head = batch.front()->req;
      if (cfg_.coalesce_max_sim_bytes > 0 && cfg_.coalesce_batch > 1 &&
          effective_bytes(head) <= cfg_.coalesce_max_sim_bytes) {
        while (batch.size() < cfg_.coalesce_batch && !cls->empty() &&
               effective_bytes(cls->front()->req) <=
                   cfg_.coalesce_max_sim_bytes) {
          pop_into_batch();
        }
      }
      // A drained tenant forfeits its remaining credit (standard DRR) and
      // its entry, keeping the map's size == live backlogged tenants.
      if (tq.size == 0) q.tenants.erase(tenant_it);
    }
    q.not_full.notify_all();
    run_batch(q, batch);
  }
}

void IoScheduler::run_batch(ChannelQueue& q,
                            std::vector<std::unique_ptr<Pending>>& batch) {
  const f64 dispatch_start = clock_->now();
  if (batch.size() > 1) {
    MutexLock slk(stats_mutex_);
    ++stats_.coalesced_batches;
    stats_.coalesced_requests += batch.size();
    Stats& ts = tenant_stats_[batch.front()->req.tenant];
    ++ts.coalesced_batches;
    ts.coalesced_requests += batch.size();
  }

  // The lease is taken lazily so an all-cancelled batch never touches the
  // lock, and held across the whole batch (the coalescing win: one
  // process-exclusive hand-off for many small transfers). It is shared so
  // async dispatches can keep the direction lock alive until their real
  // completion lands — the last holder (batch scope or completion
  // callback) releases it, from whichever thread that is (TierLock
  // ownership is worker-keyed, not thread-keyed).
  std::shared_ptr<IoChannel::Lease> lease;
  f64 item_start = dispatch_start;
  for (auto& p : batch) {
    const auto pri = static_cast<std::size_t>(p->req.priority);
    const u32 tenant = p->req.tenant;
    if (p->req.token.cancelled()) {
      {
        MutexLock slk(stats_mutex_);
        ++stats_.priority[pri].cancelled;
        ++tenant_stats_[tenant].priority[pri].cancelled;
      }
      settle(*p, std::make_exception_ptr(IoCancelled(
                     "IoScheduler: request cancelled while queued: " +
                     p->req.key)));
      finish_one(tenant);
      continue;
    }
    if (tenant_failed(tenant)) {
      // A dead tenant's queued traffic fails at dispatch exactly as it
      // would against a fail-stopped device — without occupying the
      // channel, so the surviving tenants' requests behind it never stall.
      const f64 queue_wait = std::max(0.0, item_start - p->enqueue_vtime);
      {
        MutexLock slk(stats_mutex_);
        auto& s = stats_.priority[pri];
        s.queue_wait_seconds += queue_wait;
        ++s.failed;
        auto& ts = tenant_stats_[tenant].priority[pri];
        ts.queue_wait_seconds += queue_wait;
        ++ts.failed;
      }
      settle(*p, std::make_exception_ptr(FailStopError(
                     "IoScheduler: tenant " + std::to_string(tenant) +
                     " fail-stopped while \"" + p->req.key + "\" queued")));
      finish_one(tenant);
      continue;
    }
    if (!lease) lease = std::make_shared<IoChannel::Lease>(q.channel.lease());

    // Async dispatch: when the backing tier settles on real device events,
    // hand the transfer to its completion engine and move on — the request
    // settles (stats, on_complete, future, on_settle) from the completion
    // callback with the genuinely observed service time, not a simulated
    // one. Sync backends (throttled/simulated tiers) keep the inline path
    // below, where SimClock charges the modelled service time.
    const bool tier_async = p->req.target == IoTarget::kTierPath &&
                            !p->req.work &&
                            q.channel.async_capable(p->req.key);
    const bool external_async = p->req.target == IoTarget::kExternal &&
                                !p->req.work && p->req.tier != nullptr &&
                                p->req.tier->supports_async();
    if (tier_async || external_async) {
      const f64 queue_wait_async =
          std::max(0.0, item_start - p->enqueue_vtime);
      const f64 start = item_start;
      std::shared_ptr<Pending> pending(p.release());
      auto on_done = [this, pending, lease, pri, tenant, queue_wait_async,
                      start](std::exception_ptr error) mutable {
        const f64 service = std::max(0.0, clock_->now() - start);
        const u64 moved = effective_bytes(pending->req);
        {
          MutexLock slk(stats_mutex_);
          const auto fold = [&](Stats& stats) {
            auto& s = stats.priority[pri];
            s.queue_wait_seconds += queue_wait_async;
            s.service_seconds += service;
            if (error) {
              ++s.failed;
            } else {
              ++s.completed;
              s.sim_bytes += moved;
            }
          };
          fold(stats_);
          fold(tenant_stats_[tenant]);
        }
        if (!error && pending->req.on_complete) {
          IoResult result;
          result.priority = pending->req.priority;
          result.sim_bytes = moved;
          result.queue_wait_seconds = queue_wait_async;
          result.service_seconds = service;
          try {
            pending->req.on_complete(result);
          } catch (...) {
            error = std::current_exception();
          }
        }
        settle(*pending, std::move(error));
        // Once finish_one counts this request, drain() may return and the
        // owners may destroy the scheduler and the virtual tier (whose
        // TierLock the lease holds) while the backend is still unwinding
        // this callback — so drop both first.
        pending.reset();
        lease.reset();
        finish_one(tenant);
      };
      IoRequest& req = pending->req;
      if (tier_async) {
        if (req.op == IoOp::kRead) {
          q.channel.read_async(req.key, req.dst, req.sim_bytes,
                               std::move(on_done));
        } else {
          q.channel.write_async(req.key, req.src, req.sim_bytes,
                                std::move(on_done));
        }
      } else if (req.op == IoOp::kRead) {
        req.tier->read_async(req.key, req.dst, req.sim_bytes,
                             std::move(on_done));
      } else {
        req.tier->write_async(req.key, req.src, req.sim_bytes,
                              std::move(on_done));
      }
      item_start = clock_->now();
      continue;
    }

    const f64 queue_wait = std::max(0.0, item_start - p->enqueue_vtime);
    std::exception_ptr error;
    u64 moved = 0;
    try {
      moved = execute(p->req, q.channel);
    } catch (...) {
      error = std::current_exception();
    }
    const f64 service = std::max(0.0, clock_->now() - item_start);
    {
      // Failed requests still waited and occupied the channel; fold their
      // times in so mean waits are not skewed low by error storms.
      MutexLock slk(stats_mutex_);
      const auto fold = [&](Stats& stats) {
        auto& s = stats.priority[pri];
        s.queue_wait_seconds += queue_wait;
        s.service_seconds += service;
        if (error) {
          ++s.failed;
        } else {
          ++s.completed;
          s.sim_bytes += moved;
        }
      };
      fold(stats_);
      fold(tenant_stats_[tenant]);
    }
    if (!error && p->req.on_complete) {
      IoResult result;
      result.priority = p->req.priority;
      result.sim_bytes = moved;
      result.queue_wait_seconds = queue_wait;
      result.service_seconds = service;
      // The transfer itself succeeded and stays counted as completed; a
      // throwing hook only surfaces through the future.
      try {
        p->req.on_complete(result);
      } catch (...) {
        error = std::current_exception();
      }
    }
    settle(*p, std::move(error));
    item_start = clock_->now();
    finish_one(tenant);
  }
}

u64 IoScheduler::execute(IoRequest& req, IoChannel& channel) {
  if (req.work) return req.work(channel);
  switch (req.target) {
    case IoTarget::kTierPath:
      if (req.op == IoOp::kRead) {
        channel.read(req.key, req.dst, req.sim_bytes);
      } else {
        channel.write(req.key, req.src, req.sim_bytes);
      }
      return effective_bytes(req);
    case IoTarget::kD2HLink:
    case IoTarget::kH2DLink: {
      const u64 bytes = effective_bytes(req);
      channel.transfer(bytes);
      return bytes;
    }
    case IoTarget::kExternal:
      if (req.tier == nullptr) {
        throw std::invalid_argument(
            "IoScheduler: external request without a tier");
      }
      if (req.op == IoOp::kRead) {
        req.tier->read(req.key, req.dst, req.sim_bytes);
      } else {
        req.tier->write(req.key, req.src, req.sim_bytes);
      }
      return effective_bytes(req);
  }
  throw std::logic_error("IoScheduler: unreachable target");
}

void IoScheduler::settle(Pending& pending, std::exception_ptr error) {
  // Destroy the work closure and completion hook BEFORE the future
  // settles. The closures own transfer resources — notably BufferPool
  // leases pointing into an engine-owned slab — and a waiter is entitled
  // to tear the engine down the moment its future returns. Releasing here
  // makes that teardown race-free: the Pending shell destroyed later (end
  // of the dispatched batch, or the async completion's last shared_ptr)
  // no longer references anything the engine owns.
  pending.req.work = nullptr;
  pending.req.on_complete = nullptr;
  if (error) {
    settle_error(pending, error);
  } else {
    pending.done.set_value();
  }
  // on_settle fires strictly after the future has settled, so a hook that
  // hands the result to another thread can let that thread get() without
  // blocking. Every settled request passes through here exactly once.
  if (pending.req.on_settle) pending.req.on_settle(std::move(error));
}

void IoScheduler::settle_error(Pending& pending, std::exception_ptr error) {
  // Failing the future also pins a copy of the exception_ptr until the
  // scheduler is destroyed. Without the pin, the LAST release of the
  // exception is unordered between the waiter (rethrow from get(),
  // refcount drop at the end of its catch block) and this worker
  // (promise destruction when the dispatched batch goes out of scope);
  // the refcount itself is atomic, but it lives in libstdc++'s eh_ptr
  // machinery, which ThreadSanitizer cannot instrument, so a waiter
  // still reading what() while the worker performs the final free is
  // reported as a use-after-free race. Pinning moves the final release
  // to ~IoScheduler — after every worker is joined, which is an edge
  // the sanitizer (and a human) can see. The cost is one smart pointer
  // per failed request for the scheduler's lifetime.
  {
    MutexLock lk(retired_mutex_);
    retired_errors_.push_back(error);
  }
  pending.done.set_exception(std::move(error));
}

void IoScheduler::finish_one(u32 tenant) {
  // Notify under the lock: an async completion thread is not joined by the
  // destructor, which may run as soon as drain() sees this count.
  MutexLock lk(drain_mutex_);
  settled_.fetch_add(1, std::memory_order_release);
  ++tenant_settled_[tenant];
  drain_cv_.notify_all();
}

void IoScheduler::drain() {
  MutexLock lk(drain_mutex_);
  while (settled_.load(std::memory_order_acquire) <
         submitted_.load(std::memory_order_acquire)) {
    drain_cv_.wait(lk);
  }
}

void IoScheduler::drain_tenant(u32 tenant) {
  MutexLock lk(drain_mutex_);
  while (tenant_settled_[tenant] < tenant_submitted_[tenant]) {
    drain_cv_.wait(lk);
  }
}

IoScheduler::Stats IoScheduler::stats() const {
  MutexLock slk(stats_mutex_);
  return stats_;
}

IoScheduler::Stats IoScheduler::tenant_stats(u32 tenant) const {
  MutexLock slk(stats_mutex_);
  const auto it = tenant_stats_.find(tenant);
  return it == tenant_stats_.end() ? Stats{} : it->second;
}

std::size_t IoScheduler::queued(std::size_t queue_idx) const {
  const ChannelQueue& q = *queues_.at(queue_idx);
  MutexLock lk(q.mutex);
  return q.size;
}

}  // namespace mlpo
