#include "train/grad_accum.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "train/mixed_precision.hpp"
#include "util/fp16.hpp"

namespace mlpo {

GradAccumulator::GradAccumulator(u32 num_subgroups, u64 subgroup_real_elems) {
  buffers_.resize(num_subgroups);
  for (auto& b : buffers_) b.assign(subgroup_real_elems, 0);
}

GradAccumulator::GradAccumulator(const std::vector<u64>& elems_per_subgroup) {
  buffers_.resize(elems_per_subgroup.size());
  for (std::size_t i = 0; i < buffers_.size(); ++i) {
    buffers_[i].assign(elems_per_subgroup[i], 0);
  }
}

void GradAccumulator::store(u32 id, std::span<const u16> grads_fp16) {
  auto& buf = buffers_.at(id);
  if (grads_fp16.size() != buf.size()) {
    throw std::invalid_argument("GradAccumulator::store: size mismatch");
  }
  std::copy(grads_fp16.begin(), grads_fp16.end(), buf.begin());
}

void GradAccumulator::accumulate(u32 id, std::span<const u16> grads_fp16,
                                 ThreadPool* pool) {
  auto& buf = buffers_.at(id);
  if (grads_fp16.size() != buf.size()) {
    throw std::invalid_argument("GradAccumulator::accumulate: size mismatch");
  }
  // Decode both operands a block at a time, add in FP32, re-encode.
  const auto add_range = [&](u64 begin, u64 end) {
    std::array<f32, kConvertBlock> sum;
    std::array<f32, kConvertBlock> add;
    for (u64 i = begin; i < end; i += kConvertBlock) {
      const std::size_t n = std::min<u64>(kConvertBlock, end - i);
      const std::span<u16> stored(buf.data() + i, n);
      const std::span<f32> sums(sum.data(), n);
      fp16_to_fp32(stored, sums);
      fp16_to_fp32(grads_fp16.subspan(i, n), std::span<f32>(add.data(), n));
      for (std::size_t j = 0; j < n; ++j) sums[j] += add[j];
      fp32_to_fp16(sums, stored);
    }
  };
  if (pool == nullptr) {
    add_range(0, buf.size());
  } else {
    pool->parallel_for(buf.size(), add_range);
  }
}

std::span<const u16> GradAccumulator::fp16(u32 id) const {
  return buffers_.at(id);
}

void GradAccumulator::upscale_into(u32 id, std::span<f32> out,
                                   ThreadPool* pool) const {
  upscale_fp16_to_fp32(buffers_.at(id), out, pool);
}

void GradAccumulator::reset() {
  for (auto& b : buffers_) std::fill(b.begin(), b.end(), 0);
}

}  // namespace mlpo
