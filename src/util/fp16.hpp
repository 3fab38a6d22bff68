// IEEE-754 binary16 ("half") support.
//
// Mixed-precision training keeps two copies of the model: FP16 for the
// forward/backward passes and FP32 master weights for the optimizer. The
// offloading engine therefore needs fast, correct FP16<->FP32 conversion
// kernels (paper §3.2, "delayed in-place mixed-precision gradient
// conversion").
//
// `Fp16::encode`/`Fp16::decode` are portable scalar bit-manipulation
// routines and the reference for every conversion in the library. The bulk
// kernels `fp32_to_fp16`/`fp16_to_fp32` pick their implementation once per
// process: on x86-64 hosts whose CPU reports F16C and AVX they convert eight
// lanes per instruction (`vcvtps2ph` with round-to-nearest-even, and
// `vcvtph2ps`), finishing any tail with the scalar routines; everywhere else
// they run the scalar routines throughout. Only those two functions are
// compiled for F16C, so no ISA flag reaches the rest of the library. Both
// paths produce the same bits for every input (tests/fp16_test.cpp).
#pragma once

#include <cstddef>
#include <span>

#include "util/common.hpp"

namespace mlpo {

/// Bit-level IEEE-754 binary16 value. Round-to-nearest-even on conversion
/// from float; overflow saturates to +/-inf and NaNs come out quiet, as
/// hardware F16C does.
class Fp16 {
 public:
  Fp16() = default;
  explicit Fp16(f32 value) : bits_(encode(value)) {}

  /// Reinterpret raw bits as a half value.
  static Fp16 from_bits(u16 bits) {
    Fp16 h;
    h.bits_ = bits;
    return h;
  }

  u16 bits() const { return bits_; }
  f32 to_f32() const { return decode(bits_); }

  bool is_nan() const {
    return (bits_ & 0x7C00u) == 0x7C00u && (bits_ & 0x03FFu) != 0;
  }
  bool is_inf() const {
    return (bits_ & 0x7C00u) == 0x7C00u && (bits_ & 0x03FFu) == 0;
  }

  /// Encode a float to binary16 bits (round-to-nearest-even).
  static u16 encode(f32 value);
  /// Decode binary16 bits to float (exact; a signalling NaN is quieted).
  static f32 decode(u16 bits);

 private:
  u16 bits_ = 0;
};

/// Elements per stack block for code that produces or consumes values one at
/// a time but converts them through the bulk kernels.
inline constexpr std::size_t kConvertBlock = 1024;

/// Bulk FP32 -> FP16 conversion ("downscale"). dst and src must have equal
/// length.
void fp32_to_fp16(std::span<const f32> src, std::span<u16> dst);

/// Bulk FP16 -> FP32 conversion ("upscale"). dst and src must have equal
/// length.
void fp16_to_fp32(std::span<const u16> src, std::span<f32> dst);

}  // namespace mlpo
