#include "train/grad_source.hpp"

#include <algorithm>
#include <array>

#include "util/fp16.hpp"

namespace mlpo {

namespace {

inline u64 splitmix64(u64 x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Hash of the coordinates; element i of the stream hashes base + i.
inline u64 stream_base(u64 seed, int rank, u32 subgroup_id, u64 iteration) {
  return splitmix64(seed ^ (static_cast<u64>(rank) << 48) ^
                    (static_cast<u64>(subgroup_id) << 24) ^ iteration);
}

// Map a 64-bit hash to a small centred float (~N(0, 0.02) shaped, uniform is
// fine for exercising the optimizer). Callers round-trip it through FP16 so
// every generated gradient is exactly FP16-representable.
inline f32 hash_to_f32(u64 h) {
  const f64 unit = static_cast<f64>(h >> 11) * 0x1.0p-53;  // [0, 1)
  return static_cast<f32>((unit - 0.5) * 0.04);
}

// Encode elements [first, first + out.size()) of the stream starting at
// `base` into `out`, which holds at most kConvertBlock elements.
void fill_block(u64 base, u64 first, std::span<u16> out) {
  std::array<f32, kConvertBlock> values;
  for (std::size_t i = 0; i < out.size(); ++i) {
    values[i] = hash_to_f32(splitmix64(base + first + i));
  }
  fp32_to_fp16(std::span<const f32>(values.data(), out.size()), out);
}

}  // namespace

void GradSource::generate_fp16(int rank, u32 subgroup_id, u64 iteration,
                               std::span<u16> out) const {
  const u64 base = stream_base(seed_, rank, subgroup_id, iteration);
  for (std::size_t begin = 0; begin < out.size(); begin += kConvertBlock) {
    const std::size_t n = std::min(kConvertBlock, out.size() - begin);
    fill_block(base, begin, out.subspan(begin, n));
  }
}

void GradSource::generate_fp32(int rank, u32 subgroup_id, u64 iteration,
                               std::span<f32> out) const {
  const u64 base = stream_base(seed_, rank, subgroup_id, iteration);
  std::array<u16, kConvertBlock> half;
  for (std::size_t begin = 0; begin < out.size(); begin += kConvertBlock) {
    const std::size_t n = std::min(kConvertBlock, out.size() - begin);
    const std::span<u16> block(half.data(), n);
    fill_block(base, begin, block);
    fp16_to_fp32(block, out.subspan(begin, n));
  }
}

}  // namespace mlpo
