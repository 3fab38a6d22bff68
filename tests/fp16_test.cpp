// FP16 conversion: exhaustive decode/encode roundtrip over the full 16-bit
// space, rounding behaviour, special values, and the bulk kernels against the
// scalar reference.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "util/fp16.hpp"

namespace mlpo {
namespace {

TEST(Fp16, ZeroAndSignedZero) {
  EXPECT_EQ(Fp16::encode(0.0f), 0x0000u);
  EXPECT_EQ(Fp16::encode(-0.0f), 0x8000u);
  EXPECT_EQ(Fp16::decode(0x0000u), 0.0f);
  EXPECT_EQ(Fp16::decode(0x8000u), -0.0f);
  EXPECT_TRUE(std::signbit(Fp16::decode(0x8000u)));
}

TEST(Fp16, KnownValues) {
  EXPECT_EQ(Fp16::encode(1.0f), 0x3C00u);
  EXPECT_EQ(Fp16::encode(-2.0f), 0xC000u);
  EXPECT_EQ(Fp16::encode(0.5f), 0x3800u);
  EXPECT_EQ(Fp16::encode(65504.0f), 0x7BFFu);  // max finite half
  EXPECT_EQ(Fp16::decode(0x3C00u), 1.0f);
  EXPECT_EQ(Fp16::decode(0x7BFFu), 65504.0f);
  // Smallest positive subnormal: 2^-24.
  EXPECT_EQ(Fp16::decode(0x0001u), std::ldexp(1.0f, -24));
  // Smallest positive normal: 2^-14.
  EXPECT_EQ(Fp16::decode(0x0400u), std::ldexp(1.0f, -14));
}

TEST(Fp16, OverflowSaturatesToInfinity) {
  EXPECT_EQ(Fp16::encode(1e6f), 0x7C00u);
  EXPECT_EQ(Fp16::encode(-1e6f), 0xFC00u);
  EXPECT_EQ(Fp16::encode(65520.0f), 0x7C00u);  // rounds up past max finite
  EXPECT_EQ(Fp16::encode(65519.0f), 0x7BFFu);  // rounds down to max finite
}

TEST(Fp16, UnderflowFlushesToZero) {
  EXPECT_EQ(Fp16::encode(1e-10f), 0x0000u);
  EXPECT_EQ(Fp16::encode(-1e-10f), 0x8000u);
}

TEST(Fp16, InfinityAndNan) {
  const f32 inf = std::numeric_limits<f32>::infinity();
  EXPECT_EQ(Fp16::encode(inf), 0x7C00u);
  EXPECT_EQ(Fp16::encode(-inf), 0xFC00u);
  EXPECT_TRUE(std::isinf(Fp16::decode(0x7C00u)));
  EXPECT_TRUE(std::isinf(Fp16::decode(0xFC00u)));

  const f32 nan = std::numeric_limits<f32>::quiet_NaN();
  const u16 enc = Fp16::encode(nan);
  EXPECT_TRUE(Fp16::from_bits(enc).is_nan());
  EXPECT_TRUE(std::isnan(Fp16::decode(enc)));
}

TEST(Fp16, RoundToNearestEven) {
  // 1.0 + 2^-11 sits exactly halfway between 1.0 and 1.0+2^-10: ties to
  // even keep 1.0 (mantissa even).
  EXPECT_EQ(Fp16::encode(1.0f + std::ldexp(1.0f, -11)), 0x3C00u);
  // The next representable float above the halfway point rounds up.
  EXPECT_EQ(Fp16::encode(std::nextafter(1.0f + std::ldexp(1.0f, -11), 2.0f)),
            0x3C01u);
  // 1.0 + 3*2^-11 is halfway between 0x3C01 and 0x3C02: ties to even -> 0x3C02.
  EXPECT_EQ(Fp16::encode(1.0f + 3 * std::ldexp(1.0f, -11)), 0x3C02u);
}

TEST(Fp16, ExhaustiveDecodeEncodeRoundtrip) {
  // Every half value decodes to a float that re-encodes to the same bits
  // (NaN payloads may be quieted, so compare NaN-ness instead).
  for (u32 bits = 0; bits <= 0xFFFF; ++bits) {
    const u16 h = static_cast<u16>(bits);
    const f32 f = Fp16::decode(h);
    if (Fp16::from_bits(h).is_nan()) {
      EXPECT_TRUE(std::isnan(f)) << "bits=" << bits;
      EXPECT_TRUE(Fp16::from_bits(Fp16::encode(f)).is_nan()) << "bits=" << bits;
      continue;
    }
    EXPECT_EQ(Fp16::encode(f), h) << "bits=" << bits;
  }
}

TEST(Fp16, EncodeMatchesNearestRepresentable) {
  // Property check over a sweep of floats: the encoded half must be at
  // least as close to the input as its neighbours.
  for (int i = -2000; i <= 2000; ++i) {
    const f32 x = static_cast<f32>(i) * 0.37f;
    const u16 h = Fp16::encode(x);
    const f32 fx = Fp16::decode(h);
    const f32 lo = Fp16::decode(static_cast<u16>(h > 0 ? h - 1 : h));
    const f32 hi = Fp16::decode(static_cast<u16>(h < 0x7BFF ? h + 1 : h));
    const f32 err = std::abs(fx - x);
    if (!std::isnan(lo) && !std::isinf(lo)) {
      EXPECT_LE(err, std::abs(lo - x) + 1e-9f) << "x=" << x;
    }
    if (!std::isnan(hi) && !std::isinf(hi)) {
      EXPECT_LE(err, std::abs(hi - x) + 1e-9f) << "x=" << x;
    }
  }
}

// The bulk kernels must reproduce the scalar reference bit for bit, whichever
// implementation the host selected. Each check also writes into a span at an
// odd offset with a sentinel on either side, so unaligned stores and any
// write past the span's ends show up.
constexpr u16 kSentinel = 0xBEEF;

::testing::AssertionResult EncodeMatchesScalar(std::span<const f32> src) {
  std::vector<u16> out(src.size() + 2, kSentinel);
  fp32_to_fp16(src, std::span<u16>(out).subspan(1, src.size()));
  for (std::size_t i = 0; i < src.size(); ++i) {
    const u16 expect = Fp16::encode(src[i]);
    if (out[i + 1] != expect) {
      return ::testing::AssertionFailure()
             << std::hex << "f32 0x" << std::bit_cast<u32>(src[i])
             << ": bulk 0x" << out[i + 1] << ", scalar 0x" << expect;
    }
  }
  if (out.front() != kSentinel || out.back() != kSentinel) {
    return ::testing::AssertionFailure()
           << "wrote outside a " << src.size() << "-element span";
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult DecodeMatchesScalar(std::span<const u16> src) {
  const f32 sentinel = Fp16::decode(kSentinel);
  std::vector<f32> out(src.size() + 2, sentinel);
  fp16_to_fp32(src, std::span<f32>(out).subspan(1, src.size()));
  for (std::size_t i = 0; i < src.size(); ++i) {
    const u32 expect = std::bit_cast<u32>(Fp16::decode(src[i]));
    if (std::bit_cast<u32>(out[i + 1]) != expect) {
      return ::testing::AssertionFailure()
             << std::hex << "f16 0x" << src[i] << ": bulk 0x"
             << std::bit_cast<u32>(out[i + 1]) << ", scalar 0x" << expect;
    }
  }
  if (out.front() != sentinel || out.back() != sentinel) {
    return ::testing::AssertionFailure()
           << "wrote outside a " << src.size() << "-element span";
  }
  return ::testing::AssertionSuccess();
}

TEST(Fp16, BulkKernelsMatchScalar) {
  // Every half, signalling NaNs included.
  std::vector<u16> halves(1u << 16);
  std::iota(halves.begin(), halves.end(), u16{0});
  EXPECT_TRUE(DecodeMatchesScalar(halves));

  // Every (sign, f32 exponent, top-10 mantissa bits), with the 13 bits a
  // normal half drops set at, one below and one above the rounding midpoint,
  // and at both ends. At the half-subnormal exponents the midpoint moves up
  // into the top-10 bits, so the same sweep hits it there too.
  std::vector<f32> grid;
  grid.reserve(2 * 256 * 1024 * 6);
  for (u32 sign = 0; sign < 2; ++sign) {
    for (u32 exp = 0; exp < 256; ++exp) {
      for (u32 top = 0; top < 1024; ++top) {
        for (const u32 low : {0x0000u, 0x0001u, 0x0FFFu, 0x1000u, 0x1001u,
                              0x1FFFu}) {
          grid.push_back(std::bit_cast<f32>((sign << 31) | (exp << 23) |
                                            (top << 13) | low));
        }
      }
    }
  }
  EXPECT_TRUE(EncodeMatchesScalar(grid));

  // The overflow edge, infinities, and quiet and signalling NaN payloads.
  std::vector<f32> specials;
  for (const f32 x : {65504.0f, std::nextafter(65520.0f, 0.0f), 65520.0f,
                      std::nextafter(65520.0f, 1e9f),
                      std::numeric_limits<f32>::infinity()}) {
    specials.push_back(x);
    specials.push_back(-x);
  }
  for (const u32 nan : {0x7FC00000u, 0x7FC00001u, 0x7FFFFFFFu, 0x7F800001u,
                        0x7F802000u, 0x7FBFFFFFu, 0xFFC00000u, 0xFF800001u}) {
    specials.push_back(std::bit_cast<f32>(nan));
  }
  EXPECT_TRUE(EncodeMatchesScalar(specials));

  // Lengths that run only the scalar tail, exactly one vector, and one
  // vector plus a tail; then long spans from an odd element offset (for the
  // grid, inside the binade of 1.0).
  for (const std::size_t len : {0, 1, 7, 8, 9}) {
    EXPECT_TRUE(EncodeMatchesScalar(std::span(specials).first(len))) << len;
    EXPECT_TRUE(DecodeMatchesScalar(std::span(halves).subspan(0x7BFB, len)))
        << len;
  }
  EXPECT_TRUE(EncodeMatchesScalar(std::span(specials).subspan(1)));
  const std::size_t binade_of_one = 127 * 1024 * 6;
  EXPECT_TRUE(
      EncodeMatchesScalar(std::span(grid).subspan(binade_of_one + 1, 1001)));
  EXPECT_TRUE(DecodeMatchesScalar(std::span(halves).subspan(1, 1001)));
}

}  // namespace
}  // namespace mlpo
