// Mixed-precision conversion utilities used by both engines:
//   * baseline path: upscale FP16 gradients to FP32 on the host during the
//     backward pass, then flush FP32 to storage;
//   * MLP-Offload path: keep FP16 on the host and upscale *in place during
//     the update* (paper §3.2, delayed in-place conversion) — CPU conversion
//     throughput (~65 GB/s on Testbed-1) dwarfs tier fetch bandwidth, so the
//     conversion hides entirely behind I/O.
#pragma once

#include <span>

#include "util/common.hpp"
#include "util/thread_pool.hpp"

namespace mlpo {

/// Parallel FP16 -> FP32 upscale (pool may be null for serial execution).
void upscale_fp16_to_fp32(std::span<const u16> src, std::span<f32> dst,
                          ThreadPool* pool = nullptr);

/// Cost model for conversions in the scaled-time emulation: converting
/// sim_bytes of FP32 output at `throughput` bytes per virtual second.
struct ConvertCost {
  f64 fp32_bytes_per_sec = 65.0 * GB;  ///< Testbed-1 measurement from paper

  f64 seconds_for_params(u64 sim_params) const {
    return static_cast<f64>(sim_params * kFp32Bytes) / fp32_bytes_per_sec;
  }
};

}  // namespace mlpo
