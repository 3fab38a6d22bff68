#include "util/fp16.hpp"

#include <bit>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace mlpo {

namespace {

// Decode one half via bit manipulation. Subnormals are normalised by
// shifting the mantissa; this is exact because every binary16 value is
// representable in binary32.
inline f32 decode_bits(u16 h) {
  const u32 sign = static_cast<u32>(h & 0x8000u) << 16;
  const u32 exp = (h >> 10) & 0x1Fu;
  const u32 man = h & 0x3FFu;

  u32 out;
  if (exp == 0) {
    if (man == 0) {
      out = sign;  // +/- zero
    } else {
      // Subnormal: value = man * 2^-24. Normalise.
      u32 e = 0;
      u32 m = man;
      while ((m & 0x400u) == 0) {
        m <<= 1;
        ++e;
      }
      m &= 0x3FFu;
      out = sign | ((127 - 15 - e + 1) << 23) | (m << 13);
    }
  } else if (exp == 0x1Fu) {
    // Inf, or NaN with its payload kept and the quiet bit set.
    const u32 quiet = man ? 0x400000u : 0;
    out = sign | 0x7F800000u | quiet | (man << 13);
  } else {
    out = sign | ((exp - 15 + 127) << 23) | (man << 13);
  }
  return std::bit_cast<f32>(out);
}

// Encode one float to half with round-to-nearest-even.
inline u16 encode_bits(f32 value) {
  const u32 f = std::bit_cast<u32>(value);
  const u32 sign = (f >> 16) & 0x8000u;
  const u32 exp = (f >> 23) & 0xFFu;
  const u32 man = f & 0x7FFFFFu;

  if (exp == 0xFFu) {
    // Inf or NaN. Keep a non-zero mantissa for NaN (quiet bit set).
    const u16 nan_man = man ? static_cast<u16>((man >> 13) | 0x200u) : 0;
    return static_cast<u16>(sign | 0x7C00u | nan_man);
  }

  // Re-bias exponent: binary32 bias 127 -> binary16 bias 15.
  const i32 e = static_cast<i32>(exp) - 127 + 15;
  if (e >= 0x1F) {
    return static_cast<u16>(sign | 0x7C00u);  // overflow -> inf
  }
  if (e <= 0) {
    // Subnormal half (or underflow to zero). The implicit leading 1 of the
    // binary32 mantissa becomes explicit, then shift right by (1 - e).
    if (e < -10) return static_cast<u16>(sign);  // too small, round to zero
    const u32 full = man | 0x800000u;
    const u32 shift = static_cast<u32>(14 - e);  // 13 + (1 - e)
    u32 half_man = full >> shift;
    // Round to nearest even using the bits shifted out.
    const u32 rem = full & ((1u << shift) - 1);
    const u32 halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half_man & 1u))) ++half_man;
    return static_cast<u16>(sign | half_man);
  }

  u32 half = sign | (static_cast<u32>(e) << 10) | (man >> 13);
  // Round to nearest even on the 13 dropped mantissa bits; carry may
  // propagate into the exponent, which is exactly the desired behaviour
  // (e.g. rounding up to the next binade or to infinity).
  const u32 rem = man & 0x1FFFu;
  if (rem > 0x1000u || (rem == 0x1000u && (half & 1u))) ++half;
  return static_cast<u16>(half);
}

void encode_scalar(const f32* src, u16* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = encode_bits(src[i]);
}

void decode_scalar(const u16* src, f32* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = decode_bits(src[i]);
}

#if defined(__x86_64__)

__attribute__((target("f16c,avx"))) void encode_f16c(const f32* src, u16* dst,
                                                     std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(src + i);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT));
  }
  encode_scalar(src + i, dst + i, n - i);
}

__attribute__((target("f16c,avx"))) void decode_f16c(const u16* src, f32* dst,
                                                     std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
  }
  decode_scalar(src + i, dst + i, n - i);
}

bool has_f16c() {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("f16c") && __builtin_cpu_supports("avx");
  }();
  return supported;
}

#endif

}  // namespace

u16 Fp16::encode(f32 value) { return encode_bits(value); }
f32 Fp16::decode(u16 bits) { return decode_bits(bits); }

void fp32_to_fp16(std::span<const f32> src, std::span<u16> dst) {
#if defined(__x86_64__)
  if (has_f16c()) return encode_f16c(src.data(), dst.data(), src.size());
#endif
  encode_scalar(src.data(), dst.data(), src.size());
}

void fp16_to_fp32(std::span<const u16> src, std::span<f32> dst) {
#if defined(__x86_64__)
  if (has_f16c()) return decode_f16c(src.data(), dst.data(), src.size());
#endif
  decode_scalar(src.data(), dst.data(), src.size());
}

}  // namespace mlpo
