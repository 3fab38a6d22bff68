#include "metrics.hpp"

#include <algorithm>

#include "util/stats.hpp"

namespace perfbench {

f64 median(std::vector<f64> samples) {
  if (samples.empty()) return 0;
  return mlpo::percentile(std::move(samples), 0.5);
}

std::optional<Tail> tail(std::vector<f64> samples, std::size_t beyond) {
  const std::size_t n = samples.size();
  if (n <= beyond) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const std::size_t index = n - beyond - 1;
  Tail t;
  t.value = samples[index];
  t.percentile = 100.0 * static_cast<f64>(index + 1) / static_cast<f64>(n);
  t.samples = n;
  return t;
}

f64 entitlement(u32 weight, u64 weight_sum, std::size_t tenants) {
  if (weight_sum == 0 || tenants == 0) return 0;
  return std::min(static_cast<f64>(weight) / static_cast<f64>(weight_sum),
                  1.0 / static_cast<f64>(tenants));
}

f64 share_ratio_min(const std::vector<u64>& bytes,
                    const std::vector<u32>& weights) {
  if (bytes.empty() || bytes.size() != weights.size()) return 0;
  u64 total = 0;
  u64 weight_sum = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    total += bytes[i];
    weight_sum += weights[i];
  }
  if (total == 0) return 0;
  f64 worst = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const f64 share = static_cast<f64>(bytes[i]) / static_cast<f64>(total);
    const f64 r =
        ratio(share, entitlement(weights[i], weight_sum, bytes.size()));
    worst = i == 0 ? r : std::min(worst, r);
  }
  return worst;
}

f64 overhead_us_per_req(f64 scheduler_service_seconds, f64 backend_seconds,
                        u64 requests) {
  if (requests == 0) return 0;
  return (scheduler_service_seconds - backend_seconds) * 1e6 /
         static_cast<f64>(requests);
}

f64 ratio(f64 num, f64 den) { return den > 0 ? num / den : 0; }

}  // namespace perfbench
