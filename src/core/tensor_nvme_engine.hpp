// TensorNVMe/Colossal-AI integration engine (paper §3.5): "the core
// principles of MLP-Offload make it extensible to other training runtimes,
// such as TensorNVMe in Colossal-AI, by specifying multiple DiskOffloader
// objects to create the virtual third-level tier, on each of which the
// corresponding subgroups dictated by our performance model can be
// offloaded."
//
// This engine is exactly that recipe behind the unified Engine interface:
// one DiskOffloader per storage path, the placement policy deciding which
// offloader holds which subgroup, and TensorNVMe's per-tensor
// async_write / async_read / synchronize discipline instead of
// OffloadEngine's prefetch pipeline. Each fetch blocks on its tensor's
// read (the facade's simplicity is the point); write-back stays
// asynchronous and drains at the end of the update phase. Numerically it
// is bit-identical to the other engines — the equivalence suite holds it
// to that.
#pragma once

#include <memory>
#include <vector>

#include "core/disk_offloader.hpp"
#include "core/engine.hpp"
#include "policy/placement_policy.hpp"
#include "policy/update_order_policy.hpp"
#include "tiers/virtual_tier.hpp"
#include "train/grad_accum.hpp"
#include "util/aligned_buffer.hpp"
#include "util/mutex.hpp"
#include "util/work_stealing_pool.hpp"

namespace mlpo {

class TensorNvmeEngine final : public Engine {
 public:
  TensorNvmeEngine(const EngineContext& ctx, const EngineOptions& opts,
                   const ShardLayout& layout);

  void initialize() override;

  void deposit_gradients_async(u64 sample_index, u32 subgroup_id,
                               bool first_micro_step,
                               bool final_micro_step) override;
  void wait_gradient_io() override;

  IterationReport run_update(u64 iteration) override;

  const ShardLayout& layout() const override { return layout_; }
  u32 num_subgroups() const override {
    return static_cast<u32>(subgroups_.size());
  }
  const EngineOptions& options() const { return opts_; }
  PlacementPolicy& placement() { return *placement_; }

  Subgroup snapshot_subgroup(u32 id) const override {
    return *subgroups_.at(id);
  }
  u64 state_checksum() const override;
  Distribution distribution() const override;
  /// The working copies live in host buffers (TensorNVMe's model), but the
  /// authoritative state is on the offloaders — nothing is "cached".
  std::vector<u32> host_resident() const override { return {}; }
  bool on_persistent_path(u32 id) const override;
  void restore_state(u32 id, std::span<const u8> serialized) override;

  const SimClock& clock() const override { return *ctx_.clock; }
  int rank() const override { return ctx_.rank; }
  IoScheduler* io() const override { return ctx_.io; }
  u32 tenant() const override { return ctx_.tenant; }

 private:
  std::string state_key(u32 id) const;
  /// Scheduler traffic funnel — stamps the engine's tenant id on every
  /// request (the offloaders stamp their own; they get the id at
  /// construction).
  std::future<void> submit_io(IoRequest req);
  /// Pack host P/M/V into the subgroup's staging buffer (the tensor the
  /// offloader sees) / unpack it back.
  std::span<f32> pack_staging(u32 id);
  void unpack_staging(u32 id);
  /// Write subgroup `id`'s staging tensor to the offloader the placement
  /// policy currently assigns it, recording that location for later reads.
  void write_through(u32 id);

  EngineContext ctx_;
  EngineOptions opts_;
  ShardLayout layout_;
  std::unique_ptr<PlacementPolicy> placement_;
  std::unique_ptr<UpdateOrderPolicy> order_policy_;
  std::vector<std::unique_ptr<Subgroup>> subgroups_;
  /// One per usable VirtualTier path; placement indexes into this.
  std::vector<std::unique_ptr<DiskOffloader>> offloaders_;
  /// Offloader (== usable path) each subgroup's tensor was last written
  /// to. Reads must use this, not the live policy: a rebalance() between
  /// write and read may move the *assignment* while the bytes stay put.
  std::vector<std::size_t> stored_path_;
  /// Per-subgroup tensor staging ([params|momentum|variance] as f32);
  /// must outlive pending async writes (TensorNVMe's span contract).
  std::vector<std::vector<f32>> staging_;
  std::unique_ptr<GradAccumulator> accum_;
  IoBatch gradient_io_;
  /// Reserved-once deposit scratch: deposits ride the single D2H link
  /// channel (one work function at a time per engine), so a member buffer
  /// keeps them allocation-free without a pool.
  std::vector<u16> grad_scratch_;
  bool initialized_ = false;

  /// The frontier shape's pool (null under "linear", whose graph runs on
  /// the caller's thread).
  std::unique_ptr<WorkStealingPool> graph_pool_;
  /// FP32 gradient scratch for compute nodes, which may run concurrently
  /// on the pool and so draw leases instead of sharing a member buffer.
  std::unique_ptr<BufferPool> fp32_pool_;
  BufferPool::Stats pool_mark_{};
  /// Serializes update-node access to the DiskOffloaders (their pending
  /// batches are plain future collectors, not thread-safe).
  Mutex graph_mutex_;
};

}  // namespace mlpo
