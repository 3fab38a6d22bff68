// The benchmark's own arithmetic: summary statistics over per-iteration
// samples, the tenancy share/entitlement ratio, and the scheduler-overhead
// subtraction. Kept free of workload code so tests/metrics_test.cpp can pin
// every rule down on hand-computed inputs.
#pragma once

#include <optional>
#include <vector>

#include "util/common.hpp"

namespace perfbench {

using mlpo::f64;
using mlpo::u32;
using mlpo::u64;

/// Samples that must lie strictly above a reported tail value.
inline constexpr std::size_t kTailBeyond = 10;

/// A tail percentile: the value, the nearest-rank percentile it sits at,
/// and the number of samples it was taken from.
struct Tail {
  f64 value = 0;
  f64 percentile = 0;
  std::size_t samples = 0;
};

/// Median (linear interpolation between the two middle order statistics).
/// Zero for an empty sample set.
f64 median(std::vector<f64> samples);

/// The highest nearest-rank percentile that still has at least `beyond`
/// samples above it in rank: with n sorted samples that is the value at
/// 0-based index n - beyond - 1, at percentile 100 * (n - beyond) / n.
/// Empty when n <= beyond.
std::optional<Tail> tail(std::vector<f64> samples,
                         std::size_t beyond = kTailBeyond);

/// A tenant's fair-share entitlement: min(weight / sum(weights), 1 / N).
/// Capped at the equal split because a tenant that runs out of work early
/// under-consumes its weight, which is idleness rather than starvation.
f64 entitlement(u32 weight, u64 weight_sum, std::size_t tenants);

/// min over tenants of (serviced-byte share / entitlement). `bytes` and
/// `weights` are parallel, one entry per tenant. Returns 0 when no bytes
/// moved or the inputs are empty or mismatched.
f64 share_ratio_min(const std::vector<u64>& bytes,
                    const std::vector<u32>& weights);

/// Per-request real-time overhead of the scheduler in microseconds: the
/// scheduler's summed service time minus the backend time the timing
/// wrapper measured for the same requests, divided by the request count.
/// Zero when no request was served. May be negative if the two clocks
/// disagree by more than the overhead (it is reported, not clamped).
f64 overhead_us_per_req(f64 scheduler_service_seconds,
                        f64 backend_seconds, u64 requests);

/// Safe ratio: 0 when the denominator is not positive.
f64 ratio(f64 num, f64 den);

}  // namespace perfbench
