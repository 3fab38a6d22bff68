// Unit tests for the benchmark's own arithmetic: the tail-percentile rule
// and its sample-count cutoff, share / entitlement, the scheduler-overhead
// subtraction, and span self time.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "metrics.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<f64> one_to(int n) {
  std::vector<f64> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Tail, NeedsMoreSamplesThanTheBeyondCount) {
  EXPECT_FALSE(tail(one_to(0)).has_value());
  EXPECT_FALSE(tail(one_to(10)).has_value());
  const auto t = tail(one_to(11));
  ASSERT_TRUE(t.has_value());
  // Index 0: the minimum, with all ten others above it.
  EXPECT_DOUBLE_EQ(t->value, 1.0);
  EXPECT_NEAR(t->percentile, 100.0 / 11.0, 1e-12);
  EXPECT_EQ(t->samples, 11u);
}

TEST(Tail, LeavesExactlyTenSamplesAbove) {
  std::vector<f64> samples = one_to(40);
  std::shuffle(samples.begin(), samples.end(), std::mt19937(7));
  const auto t = tail(samples);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->value, 30.0);
  EXPECT_DOUBLE_EQ(t->percentile, 75.0);
  EXPECT_EQ(std::count_if(samples.begin(), samples.end(),
                          [&](f64 x) { return x > t->value; }),
            10);
}

TEST(Tail, ReachesP99AtOneThousandOneHundredSamples) {
  const auto t = tail(one_to(1000));
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->value, 990.0);
  EXPECT_DOUBLE_EQ(t->percentile, 99.0);
}

TEST(Tail, BeyondCountIsAParameter) {
  const auto t = tail(one_to(5), 2);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->value, 3.0);
  EXPECT_DOUBLE_EQ(t->percentile, 60.0);
}

TEST(Median, InterpolatesEvenCounts) {
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Share, EntitlementIsCappedAtTheEqualSplit) {
  // 3:1 over two tenants: heavy is owed 3/4 but capped at 1/2.
  EXPECT_DOUBLE_EQ(entitlement(3, 4, 2), 0.5);
  EXPECT_DOUBLE_EQ(entitlement(1, 4, 2), 0.25);
  EXPECT_DOUBLE_EQ(entitlement(1, 1, 1), 1.0);
  EXPECT_DOUBLE_EQ(entitlement(1, 0, 2), 0.0);
}

TEST(Share, RatioIsTheWorstTenantsShareOverEntitlement) {
  // Heavy gets 60% (entitled 50%: 1.2), light 40% (entitled 25%: 1.6).
  EXPECT_DOUBLE_EQ(share_ratio_min({600, 400}, {3, 1}), 1.2);
  // Light starved to 10%: 0.1 / 0.25.
  EXPECT_DOUBLE_EQ(share_ratio_min({900, 100}, {3, 1}), 0.4);
  // A single tenant always holds exactly its entitlement.
  EXPECT_DOUBLE_EQ(share_ratio_min({12345}, {1}), 1.0);
}

TEST(Share, DegenerateInputsGiveZero) {
  EXPECT_DOUBLE_EQ(share_ratio_min({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(share_ratio_min({0, 0}, {3, 1}), 0.0);
  EXPECT_DOUBLE_EQ(share_ratio_min({1, 2}, {1}), 0.0);
}

TEST(Overhead, SubtractsBackendTimePerRequest) {
  // 2.5 s of scheduler service, 2.0 s of it in the backend, 1000 requests:
  // 0.5 ms of overhead spread over 1000 requests is 500 us each.
  EXPECT_DOUBLE_EQ(overhead_us_per_req(2.5, 2.0, 1000), 500.0);
  EXPECT_DOUBLE_EQ(overhead_us_per_req(1.0, 1.0, 10), 0.0);
  EXPECT_DOUBLE_EQ(overhead_us_per_req(1.0, 0.5, 0), 0.0);
  // Not clamped: a backend that outlasts the service time shows up.
  EXPECT_LT(overhead_us_per_req(1.0, 1.5, 5), 0.0);
}

SpanRecord span(u64 id, u64 parent, f64 start, f64 end) {
  SpanRecord r;
  r.id = id;
  r.parent = parent;
  r.real_start_us = start;
  r.real_end_us = end;
  return r;
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  // Parent 0..100; children 10..30 and 20..50 overlap (union 10..50) and
  // 60..70; a grandchild must not count against the parent twice.
  const std::vector<SpanRecord> spans = {
      span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 20, 50),
      span(4, 1, 60, 70), span(5, 4, 62, 68)};
  const std::vector<f64> self = self_times_us(spans);
  EXPECT_DOUBLE_EQ(self[0], 100 - 40 - 10);
  EXPECT_DOUBLE_EQ(self[1], 20);
  EXPECT_DOUBLE_EQ(self[2], 30);
  EXPECT_DOUBLE_EQ(self[3], 10 - 6);
  EXPECT_DOUBLE_EQ(self[4], 6);
}

TEST(SelfTime, ClipsChildrenThatOutliveTheParent) {
  // An async child that ends after its parent only covers the overlap.
  const std::vector<SpanRecord> spans = {span(1, 0, 0, 10),
                                         span(2, 1, 5, 25)};
  const std::vector<f64> self = self_times_us(spans);
  EXPECT_DOUBLE_EQ(self[0], 5);
  EXPECT_DOUBLE_EQ(self[1], 20);
}

TEST(Tracer, NestsScopedSpansAndIgnoresDisabledOnes) {
  Tracer tracer;
  {
    Tracer::Span off = tracer.begin("off", "core");
  }
  tracer.set_enabled(true);
  tracer.set_iteration(3);
  {
    Tracer::Span outer = tracer.begin("outer", "runtime");
    Tracer::Span inner = tracer.begin("inner", "core");
    inner.end();
    Tracer::Span async = tracer.begin_async("io", "tiers");
    async.end();
  }
  const std::vector<SpanRecord> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  const SpanRecord& inner = spans[0];
  const SpanRecord& async = spans[1];
  const SpanRecord& outer = spans[2];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(async.parent, outer.id);
  EXPECT_TRUE(async.async);
  EXPECT_EQ(inner.iteration, 3);
  EXPECT_LE(outer.real_start_us, inner.real_start_us);
  EXPECT_GE(outer.real_end_us, inner.real_end_us);
}

TEST(Tracer, OtherThreadsNestUnderTheMainThreadsInnermostSpan) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    Tracer::Span outer = tracer.begin("outer", "core");
    Tracer::Span inner = tracer.begin("inner", "core");
    std::thread worker([&] {
      Tracer::Span io = tracer.begin("io", "tiers");
      Tracer::Span nested = tracer.begin("nested", "tiers");
    });
    worker.join();
    // The worker's spans must not have moved the main thread's nesting.
    Tracer::Span after = tracer.begin("after", "core");
  }
  std::map<std::string, SpanRecord> by_name;
  for (const SpanRecord& r : tracer.spans()) by_name[r.name] = r;
  ASSERT_EQ(by_name.size(), 5u);
  EXPECT_EQ(by_name["io"].parent, by_name["inner"].id);
  EXPECT_EQ(by_name["nested"].parent, by_name["io"].id);
  EXPECT_EQ(by_name["after"].parent, by_name["inner"].id);
  EXPECT_NE(by_name["io"].thread, by_name["inner"].thread);
}

}  // namespace
}  // namespace perfbench
