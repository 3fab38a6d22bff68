// Concurrency hammer suites: many-thread stress of the primitives whose
// single-thread unit tests cannot surface ordering bugs — ThreadPool's
// drain-then-exit shutdown contract, BufferPool under contention, and the
// TierStats no-concurrent-transfers contract (TransferScope). These tests
// are the designated prey for the TSan preset: every suite here runs
// multiple real threads over the annotated primitives, so a regression in
// the locking shows up as a sanitizer report even when the test's own
// assertions still pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "io/io_scheduler.hpp"
#include "tiers/failstop_tier.hpp"
#include "tiers/memory_tier.hpp"
#include "tiers/storage_tier.hpp"
#include "util/aligned_buffer.hpp"
#include "util/sim_clock.hpp"
#include "util/thread_pool.hpp"
#include "util/work_stealing_pool.hpp"

namespace mlpo {
namespace {

TEST(ThreadPoolHammer, EverySuccessfulSubmitRedeemsItsFuture) {
  // Shutdown contract: a submit() that did not throw must produce a future
  // that get()s cleanly even when the destructor runs concurrently —
  // workers drain the queue before exiting. Submitters race pool
  // destruction; the destructor starts as soon as `stop` flips.
  for (int round = 0; round < 8; ++round) {
    std::atomic<u64> executed{0};
    std::atomic<u64> submitted{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> submitters;
    std::vector<std::future<void>> futures[4];

    {
      ThreadPool pool(3);
      for (int s = 0; s < 4; ++s) {
        submitters.emplace_back([&pool, &executed, &submitted, &stop,
                                 &futs = futures[s]] {
          while (!stop.load(std::memory_order_acquire)) {
            try {
              futs.push_back(pool.submit([&executed] {
                executed.fetch_add(1, std::memory_order_relaxed);
              }));
              submitted.fetch_add(1, std::memory_order_relaxed);
            } catch (const std::runtime_error&) {
              return;  // pool is stopping — the documented submit() outcome
            }
          }
        });
      }
      // Give the submitters a moment of real traffic, then destroy the
      // pool while they are still pushing.
      while (executed.load(std::memory_order_relaxed) < 64) {
        std::this_thread::yield();
      }
      stop.store(true, std::memory_order_release);
      for (auto& t : submitters) t.join();
    }  // ~ThreadPool: must drain everything already accepted

    u64 redeemed = 0;
    for (auto& futs : futures) {
      for (auto& f : futs) {
        f.get();  // throws (std::future_error/broken_promise) on a dropped task
        ++redeemed;
      }
    }
    EXPECT_EQ(redeemed, submitted.load()) << "round " << round;
    EXPECT_EQ(executed.load(), submitted.load()) << "round " << round;
  }
}

TEST(ThreadPoolHammer, TrySubmitNeverThrowsAndEveryFutureRedeems) {
  // try_submit's contract under the same destructor race: it must never
  // throw — rejection is nullopt — and every future it DID hand out must
  // redeem (the task was accepted before stop, so the drain covers it).
  for (int round = 0; round < 8; ++round) {
    std::atomic<u64> executed{0};
    std::atomic<u64> submitted{0};
    std::atomic<bool> stop{false};
    std::atomic<bool> saw_rejection{false};
    std::vector<std::thread> submitters;
    std::vector<std::future<void>> futures[4];

    {
      ThreadPool pool(3);
      for (int s = 0; s < 4; ++s) {
        submitters.emplace_back([&pool, &executed, &submitted, &stop,
                                 &saw_rejection, &futs = futures[s]] {
          while (!stop.load(std::memory_order_acquire)) {
            auto fut = pool.try_submit([&executed] {
              executed.fetch_add(1, std::memory_order_relaxed);
            });
            if (!fut.has_value()) {
              saw_rejection.store(true, std::memory_order_relaxed);
              return;  // pool is stopping — the documented outcome
            }
            futs.push_back(std::move(*fut));
            submitted.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
      while (executed.load(std::memory_order_relaxed) < 64) {
        std::this_thread::yield();
      }
      stop.store(true, std::memory_order_release);
      for (auto& t : submitters) t.join();
    }  // ~ThreadPool races the submitters above in earlier iterations

    u64 redeemed = 0;
    for (auto& futs : futures) {
      for (auto& f : futs) {
        f.get();
        ++redeemed;
      }
    }
    EXPECT_EQ(redeemed, submitted.load()) << "round " << round;
    EXPECT_EQ(executed.load(), submitted.load()) << "round " << round;
  }
}

TEST(WorkStealingPoolHammer, DrainsEverythingAcceptedUnderSubmitStorm) {
  // Same shutdown contract as ThreadPool, plus the steal path: multiple
  // submitters race each other (round-robin across worker deques) and the
  // destructor; every accepted task must execute and every future redeem.
  for (int round = 0; round < 8; ++round) {
    std::atomic<u64> executed{0};
    std::atomic<u64> submitted{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> submitters;
    std::vector<std::future<void>> futures[4];

    {
      WorkStealingPool pool(3);
      for (int s = 0; s < 4; ++s) {
        submitters.emplace_back([&pool, &executed, &submitted, &stop,
                                 &futs = futures[s]] {
          while (!stop.load(std::memory_order_acquire)) {
            auto fut = pool.try_submit([&executed] {
              executed.fetch_add(1, std::memory_order_relaxed);
            });
            if (!fut.has_value()) return;  // stopping
            futs.push_back(std::move(*fut));
            submitted.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
      while (executed.load(std::memory_order_relaxed) < 64) {
        std::this_thread::yield();
      }
      stop.store(true, std::memory_order_release);
      for (auto& t : submitters) t.join();
    }  // ~WorkStealingPool: drain-then-exit

    u64 redeemed = 0;
    for (auto& futs : futures) {
      for (auto& f : futs) {
        f.get();
        ++redeemed;
      }
    }
    EXPECT_EQ(redeemed, submitted.load()) << "round " << round;
    EXPECT_EQ(executed.load(), submitted.load()) << "round " << round;
  }
}

TEST(WorkStealingPoolHammer, WorkerLocalSubmissionLandsOnOwnDeque) {
  // Tasks submitted FROM a pool worker push to that worker's own deque
  // (the locality fast path). Recursive fan-out from inside tasks must
  // complete without deadlock and preserve the drain guarantee.
  // No blocking inside tasks (a worker waiting on a future it must itself
  // drain would deadlock); the main thread waits on the counter instead,
  // while the pool is alive, so no nested submit can race the stop flag.
  std::atomic<int> leaf_count{0};
  WorkStealingPool pool(3);
  for (int i = 0; i < 16; ++i) {
    pool.submit([&pool, &leaf_count] {
      for (int j = 0; j < 8; ++j) {
        pool.submit([&leaf_count] {
          leaf_count.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  while (leaf_count.load(std::memory_order_acquire) < 16 * 8) {
    std::this_thread::yield();
  }
  EXPECT_EQ(leaf_count.load(), 16 * 8);
}

TEST(BufferPoolHammer, LeasesNeverOversubscribe) {
  constexpr std::size_t kBuffers = 3;
  BufferPool pool(kBuffers, 1024);
  std::atomic<int> holding{0};
  std::atomic<bool> oversubscribed{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&pool, &holding, &oversubscribed] {
      for (int i = 0; i < 400; ++i) {
        auto lease = pool.acquire();
        const int now = holding.fetch_add(1, std::memory_order_acq_rel) + 1;
        if (now > static_cast<int>(kBuffers)) oversubscribed.store(true);
        holding.fetch_sub(1, std::memory_order_acq_rel);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_FALSE(oversubscribed.load());
  EXPECT_EQ(pool.available(), kBuffers);
}

TEST(BufferPoolHammer, VariableSizeLeasesConserveSlabBytes) {
  // The slab-suballocator pool under contention: mixed-size acquires from
  // many threads, writes through every lease (so ASan sees any overlap),
  // and a final accounting check that nothing leaked or double-freed.
  BufferPool::Options opts;
  opts.slab_bytes = 64 * 4096;
  BufferPool pool(opts);
  std::atomic<bool> corrupted{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&pool, &corrupted, t] {
      const u8 tag = static_cast<u8>(0x40 + t);
      for (int i = 0; i < 300; ++i) {
        // Sizes span sub-granule to multi-page; all fit the slab, so no
        // heap fallback may ever trigger.
        auto lease = pool.acquire(128 + static_cast<std::size_t>(
                                            (i * 2654435761u + t) % (5 * 4096)));
        std::fill(lease.bytes().begin(), lease.bytes().end(), tag);
        std::this_thread::yield();
        for (const u8 b : lease.bytes()) {
          if (b != tag) corrupted.store(true, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_FALSE(corrupted.load());
  const auto s = pool.stats();
  EXPECT_EQ(s.acquires, u64{6} * 300);
  EXPECT_EQ(s.releases, s.acquires);
  EXPECT_EQ(s.heap_fallbacks, 0u);
  EXPECT_EQ(s.bytes_in_use, 0u);
  EXPECT_EQ(pool.free_bytes(), opts.slab_bytes);
}

u64 fnv1a(const std::vector<u8>& bytes) {
  u64 h = 1469598103934665603ull;
  for (const u8 b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(TenancyHammer, BullyFailStopLeavesSurvivorLatencyAndDataIntact) {
  // Two tenants share one scheduler and one external channel. Tenant 2
  // (the bully) saturates the channel with lazy flushes and fail-stops
  // mid-storm; tenant 1 (the survivor) streams demand prefetches the
  // whole time. Contract under hammer: every survivor read completes
  // (nothing settles with the bully's FailStopError), the data read back
  // is bit-identical to what was written, and the survivor's p99 queue
  // wait stays bounded — the dead tenant's backlog must not stall the
  // channel for its neighbour.
  constexpr int kSurvivorReads = 96;
  constexpr int kBullyWrites = 200;  // per half, around the fail-stop
  SimClock clock(1.0);
  IoScheduler::Config cfg;
  cfg.coalesce_max_sim_bytes = 0;
  IoScheduler sched(clock, cfg);
  MemoryTier tier("tenancy-shared");

  // Survivor payloads, written directly (setup, not under test).
  std::vector<std::vector<u8>> payloads(kSurvivorReads);
  u64 reference = 0;
  for (int i = 0; i < kSurvivorReads; ++i) {
    payloads[i].assign(512 + 7 * static_cast<std::size_t>(i),
                       static_cast<u8>(0x11 + i));
    tier.write("s/" + std::to_string(i), payloads[i]);
    reference += fnv1a(payloads[i]);
  }

  const auto bully_write = [&tier](int i, const std::vector<u8>& junk) {
    IoRequest req;
    req.op = IoOp::kWrite;
    req.target = IoTarget::kExternal;
    req.tier = &tier;
    req.key = "b/" + std::to_string(i);
    req.src = junk;
    req.sim_bytes = junk.size();
    req.priority = IoPriority::kLazyFlush;
    req.tenant = 2;
    return req;
  };

  std::promise<void> first_half_submitted;
  std::promise<void> failure_injected;
  std::shared_future<void> injected = failure_injected.get_future().share();
  std::atomic<u64> bully_failures{0};

  std::thread bully([&] {
    const std::vector<u8> junk(4096, 0xbb);
    std::vector<std::future<void>> futs;
    for (int i = 0; i < kBullyWrites; ++i) {
      futs.push_back(sched.submit(bully_write(i, junk)));
    }
    first_half_submitted.set_value();
    injected.wait();
    // Every post-fail-stop submission must settle with FailStopError.
    for (int i = kBullyWrites; i < 2 * kBullyWrites; ++i) {
      futs.push_back(sched.submit(bully_write(i, junk)));
    }
    for (auto& f : futs) {
      try {
        f.get();
      } catch (const FailStopError&) {
        bully_failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  std::mutex mu;
  std::vector<f64> waits;
  std::atomic<u64> survivor_sum{0};
  std::thread survivor([&] {
    std::vector<std::vector<u8>> out(kSurvivorReads);
    std::vector<std::future<void>> futs;
    for (int i = 0; i < kSurvivorReads; ++i) {
      out[i].resize(payloads[i].size());
      IoRequest req;
      req.op = IoOp::kRead;
      req.target = IoTarget::kExternal;
      req.tier = &tier;
      req.key = "s/" + std::to_string(i);
      req.dst = out[i];
      req.sim_bytes = out[i].size();
      req.priority = IoPriority::kDemandPrefetch;
      req.tenant = 1;
      req.on_complete = [&mu, &waits](const IoResult& r) {
        std::lock_guard lk(mu);
        waits.push_back(r.queue_wait_seconds);
      };
      futs.push_back(sched.submit(std::move(req)));
      std::this_thread::yield();  // interleave with the bully's storm
    }
    for (auto& f : futs) f.get();  // none may throw
    u64 sum = 0;
    for (const auto& o : out) sum += fnv1a(o);
    survivor_sum.store(sum);
  });

  first_half_submitted.get_future().wait();
  sched.fail_tenant(2);  // mid-storm: some bully traffic is still queued
  failure_injected.set_value();

  bully.join();
  survivor.join();
  sched.drain();

  EXPECT_EQ(survivor_sum.load(), reference);
  EXPECT_GE(bully_failures.load(), static_cast<u64>(kBullyWrites));

  const auto demand = static_cast<std::size_t>(IoPriority::kDemandPrefetch);
  const auto s1 = sched.tenant_stats(1);
  EXPECT_EQ(s1.priority[demand].completed, static_cast<u64>(kSurvivorReads));
  EXPECT_EQ(s1.priority[demand].failed, 0u);
  EXPECT_EQ(s1.priority[demand].cancelled, 0u);

  // p99 queue wait (virtual == real seconds at scale 1): the bound is a
  // stall detector, not a perf gate — memcpy-backed requests wait
  // microseconds unless the dead tenant's backlog wedges the channel.
  ASSERT_EQ(waits.size(), static_cast<std::size_t>(kSurvivorReads));
  std::sort(waits.begin(), waits.end());
  const f64 p99 = waits[(waits.size() * 99) / 100];
  EXPECT_LT(p99, 5.0) << "survivor stalled behind a fail-stopped tenant";
}

TEST(TierStatsContract, TransferScopeTracksInFlight) {
  TierStats stats;
  EXPECT_EQ(stats.in_flight(), 0u);
  {
    TierStats::TransferScope a(stats);
    EXPECT_EQ(stats.in_flight(), 1u);
    {
      TierStats::TransferScope b(stats);
      EXPECT_EQ(stats.in_flight(), 2u);
    }
    EXPECT_EQ(stats.in_flight(), 1u);
  }
  EXPECT_EQ(stats.in_flight(), 0u);
  stats.reset();  // legal: nothing in flight
  EXPECT_EQ(stats.reads.load(), 0u);
}

TEST(TierStatsContract, TiersClearInFlightAfterEachTransfer) {
  MemoryTier tier("hammer-mem");
  std::vector<u8> blob(256, 0xab);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&tier, &blob, t] {
      const std::string key = "obj-" + std::to_string(t);
      std::vector<u8> out(blob.size());
      for (int i = 0; i < 200; ++i) {
        tier.write(key, blob);
        tier.read(key, out);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Every TransferScope closed; reset() must now be legal.
  EXPECT_EQ(tier.stats().in_flight(), 0u);
  tier.stats().reset();
  EXPECT_EQ(tier.stats().writes.load(), 0u);
}

TEST(TierStatsContractDeathTest, ResetDuringTransferAssertsInDebug) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  TierStats stats;
  TierStats::TransferScope scope(stats);
  // Debug builds must die on the contract violation; release builds run
  // the reset (the assert compiles out) — EXPECT_DEBUG_DEATH covers both.
  EXPECT_DEBUG_DEATH(stats.reset(), "no-concurrent-transfers");
}

}  // namespace
}  // namespace mlpo
