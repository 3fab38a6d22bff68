// GradSource determinism + GradAccumulator semantics + mixed-precision
// kernels.
#include <gtest/gtest.h>

#include <bit>

#include "train/grad_accum.hpp"
#include "train/grad_source.hpp"
#include "train/mixed_precision.hpp"
#include "util/fp16.hpp"

namespace mlpo {
namespace {

TEST(GradSource, DeterministicAcrossCalls) {
  GradSource src;
  std::vector<u16> a(128), b(128);
  src.generate_fp16(0, 5, 17, a);
  src.generate_fp16(0, 5, 17, b);
  EXPECT_EQ(a, b);
}

TEST(GradSource, DistinctCoordinatesGiveDistinctStreams) {
  GradSource src;
  std::vector<u16> base(64), other(64);
  src.generate_fp16(0, 1, 1, base);
  src.generate_fp16(1, 1, 1, other);
  EXPECT_NE(base, other) << "rank must affect the stream";
  src.generate_fp16(0, 2, 1, other);
  EXPECT_NE(base, other) << "subgroup must affect the stream";
  src.generate_fp16(0, 1, 2, other);
  EXPECT_NE(base, other) << "iteration must affect the stream";
}

TEST(GradSource, SeedChangesStream) {
  GradSource a(1), b(2);
  std::vector<u16> va(32), vb(32);
  a.generate_fp16(0, 0, 0, va);
  b.generate_fp16(0, 0, 0, vb);
  EXPECT_NE(va, vb);
}

TEST(GradSource, Fp32MatchesUpscaledFp16) {
  GradSource src;
  std::vector<u16> half(256);
  std::vector<f32> full(256), upscaled(256);
  src.generate_fp16(2, 3, 4, half);
  src.generate_fp32(2, 3, 4, full);
  fp16_to_fp32(half, upscaled);
  EXPECT_EQ(full, upscaled);
}

// FNV-1a over the little-endian bytes of each value's bits.
u64 fnv1a(u64 hash, u32 bits, int bytes) {
  for (int b = 0; b < bytes; ++b) {
    hash ^= (bits >> (8 * b)) & 0xFFu;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

TEST(GradSource, StreamIsPinned) {
  // Recorded from the per-element scalar generator. Every equivalence and
  // recovery checksum is built on this stream, so it must never move. 5000
  // elements end in a partial conversion block.
  GradSource src;
  std::vector<u16> half(5000);
  std::vector<f32> full(5000);
  src.generate_fp16(1, 7, 3, half);
  src.generate_fp32(1, 7, 3, full);
  u64 half_hash = 0xCBF29CE484222325ull;
  for (const u16 h : half) half_hash = fnv1a(half_hash, h, 2);
  u64 full_hash = 0xCBF29CE484222325ull;
  for (const f32 f : full) {
    full_hash = fnv1a(full_hash, std::bit_cast<u32>(f), 4);
  }
  EXPECT_EQ(half_hash, 0x5F95E6147030C825ull);
  EXPECT_EQ(full_hash, 0xA4D0B358CDDB5BB0ull);
}

TEST(GradSource, ValuesAreSmallAndCentred) {
  GradSource src;
  std::vector<f32> g(10000);
  src.generate_fp32(0, 0, 0, g);
  f64 sum = 0;
  for (const f32 x : g) {
    EXPECT_LE(std::abs(x), 0.03f);
    sum += x;
  }
  EXPECT_NEAR(sum / g.size(), 0.0, 0.001);
}

TEST(GradAccumulator, StoreThenReadBack) {
  GradAccumulator accum(2, 16);
  std::vector<u16> g(16, Fp16::encode(0.5f));
  accum.store(1, g);
  EXPECT_EQ(accum.fp16(1)[0], Fp16::encode(0.5f));
  EXPECT_EQ(accum.fp16(0)[0], 0);  // untouched buffer stays zero
}

TEST(GradAccumulator, AccumulateSums) {
  GradAccumulator accum(1, 8);
  std::vector<u16> g1(8, Fp16::encode(0.25f));
  std::vector<u16> g2(8, Fp16::encode(0.5f));
  accum.store(0, g1);
  accum.accumulate(0, g2);
  for (const u16 h : accum.fp16(0)) {
    EXPECT_EQ(Fp16::decode(h), 0.75f);
  }
}

TEST(GradAccumulator, AccumulateMatchesScalarReference) {
  // Bit for bit against per-element decode + add + encode, serial and
  // pooled, over a length that ends in a partial conversion block. The first
  // elements overflow to inf, add subnormals, and make a NaN from inf - inf.
  ThreadPool pool(4);
  GradAccumulator serial(1, 5000), parallel(1, 5000);
  GradSource src;
  std::vector<u16> a(5000), b(5000);
  src.generate_fp16(0, 0, 0, a);
  src.generate_fp16(0, 0, 1, b);
  a[0] = b[0] = 0x7BFF;
  a[1] = b[1] = 0x0001;
  a[2] = 0x7C00;
  b[2] = 0xFC00;
  serial.store(0, a);
  parallel.store(0, a);
  serial.accumulate(0, b, nullptr);
  parallel.accumulate(0, b, &pool);
  for (std::size_t i = 0; i < 5000; ++i) {
    const u16 expect = Fp16::encode(Fp16::decode(a[i]) + Fp16::decode(b[i]));
    ASSERT_EQ(serial.fp16(0)[i], expect) << i;
    ASSERT_EQ(parallel.fp16(0)[i], expect) << i;
  }
}

TEST(GradAccumulator, UpscaleIntoMatchesScalarConversion) {
  GradAccumulator accum(1, 64);
  GradSource src;
  std::vector<u16> g(64);
  src.generate_fp16(0, 0, 9, g);
  accum.store(0, g);
  std::vector<f32> out(64), expect(64);
  accum.upscale_into(0, out);
  fp16_to_fp32(g, expect);
  EXPECT_EQ(out, expect);
}

TEST(GradAccumulator, ResetZeroesEverything) {
  GradAccumulator accum(2, 4);
  std::vector<u16> g(4, Fp16::encode(1.0f));
  accum.store(0, g);
  accum.store(1, g);
  accum.reset();
  for (u32 id = 0; id < 2; ++id) {
    for (const u16 h : accum.fp16(id)) EXPECT_EQ(h, 0);
  }
}

TEST(GradAccumulator, PerSubgroupSizesSupported) {
  GradAccumulator accum(std::vector<u64>{10, 20, 5});
  EXPECT_EQ(accum.num_subgroups(), 3u);
  EXPECT_EQ(accum.elems(0), 10u);
  EXPECT_EQ(accum.elems(1), 20u);
  EXPECT_EQ(accum.elems(2), 5u);
  std::vector<u16> wrong(11);
  EXPECT_THROW(accum.store(0, wrong), std::invalid_argument);
}

TEST(MixedPrecision, UpscaleDownscaleRoundtripExactForFp16Values) {
  ThreadPool pool(2);
  std::vector<u16> half(1000);
  for (std::size_t i = 0; i < half.size(); ++i) {
    half[i] = Fp16::encode(static_cast<f32>(i) * 0.125f);
  }
  std::vector<f32> full(1000);
  upscale_fp16_to_fp32(half, full, &pool);
  std::vector<u16> back(1000);
  fp32_to_fp16(full, back);
  EXPECT_EQ(back, half);
}

TEST(MixedPrecision, SizeMismatchThrows) {
  std::vector<u16> half(4);
  std::vector<f32> full(5);
  EXPECT_THROW(upscale_fp16_to_fp32(half, full), std::invalid_argument);
}

TEST(MixedPrecision, ConvertCostScalesLinearly) {
  ConvertCost cost;
  cost.fp32_bytes_per_sec = 65e9;
  const f64 t100m = cost.seconds_for_params(100'000'000);
  EXPECT_NEAR(t100m, 400e6 / 65e9, 1e-9);
  EXPECT_NEAR(cost.seconds_for_params(200'000'000), 2 * t100m, 1e-12);
}

}  // namespace
}  // namespace mlpo
