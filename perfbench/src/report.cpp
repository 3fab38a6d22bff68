#include "report.hpp"

#include <cstdio>
#include <stdexcept>

#include "util/json.hpp"

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"iter_s.p50", "s"},
      {"iter_s.tail", "s"},
      {"update_s.p50", "s"},
      {"tenant.worst_iter_s.p50", "s"},
      {"tenant.iters_per_ks", "1/ks"},
      {"tenant.share_ratio_min", "ratio"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      {"tiers.nvme.read_gbps", "GB/s"},
      {"tiers.nvme.write_gbps", "GB/s"},
      {"tiers.pfs.read_gbps", "GB/s"},
      {"tiers.pfs.write_gbps", "GB/s"},
      {"tiers.backend.read_us.p50", "us"},
      {"tiers.backend.write_us.p50", "us"},
      {"tiers.backend.gbps", "GB/s"},
      {"tiers.backend.errors", "count"},
      {"io.demand_prefetch.wait_s.mean", "s"},
      {"io.demand_prefetch.service_s.mean", "s"},
      {"io.grad_deposit.wait_s.mean", "s"},
      {"io.grad_deposit.service_s.mean", "s"},
      {"io.lazy_flush.wait_s.mean", "s"},
      {"io.lazy_flush.service_s.mean", "s"},
      {"io.coalesced_batches", "count"},
      {"io.max_queue_depth", "count"},
      {"io.overhead_us_per_req", "us"},
      {"graph.tasks_stolen", "count"},
      {"graph.idle_s", "s"},
      {"graph.frontier_max", "count"},
      {"util.pool.acquires", "count"},
      {"util.pool.heap_fallbacks", "count"},
      {"train.adam_vs_memcpy", "ratio"},
      {"train.fp16_vs_memcpy", "ratio"},
      {"policy.pfs_byte_share", "ratio"},
      {"policy.bw_estimate_err_pct", "%"},
      {"core.cache_hit_rate", "ratio"},
      {"core.fetch_s", "s"},
      {"core.flush_s", "s"},
      {"core.compute_s", "s"},
      {"core.update_io_fraction", "ratio"},
      {"core.bytes_per_param", "B/param"},
      {"runtime.forward_s", "s"},
      {"runtime.backward_s", "s"},
      {"runtime.tenant.byte_share.heavy", "ratio"},
      {"runtime.tenant.byte_share.light", "ratio"},
      {"runtime.admitted_host_gb", "GB"},
      {"trace.overhead_pct", "%"},
  };
  return specs;
}

namespace {

const MetricSpec* find_spec(const std::string& name) {
  for (const auto* specs : {&end_to_end_specs(), &per_layer_specs()}) {
    for (const MetricSpec& s : *specs) {
      if (name == s.name) return &s;
    }
  }
  return nullptr;
}

}  // namespace

void Outcome::set(const std::string& name, f64 value) {
  const MetricSpec* spec = find_spec(name);
  if (spec == nullptr) {
    throw std::logic_error("perfbench: metric '" + name +
                           "' is not in the catalogue");
  }
  metrics_[name] = Metric{value, spec->unit};
}

void Outcome::fail(const std::string& why) { problems_.push_back(why); }

void Outcome::print(bool traced) const {
  using mlpo::json::Object;
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  std::printf("I/O requests: %llu submitted, %llu failed or cancelled "
              "(io_failed_frac %.6g)\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              ratio(static_cast<f64>(failed_), static_cast<f64>(attempted_)));
  for (const std::string& why : problems_) {
    std::printf("INCORRECT: %s\n", why.c_str());
  }
  Object selected;
  for (const MetricSpec& s :
       traced ? per_layer_specs() : end_to_end_specs()) {
    const auto it = metrics_.find(s.name);
    if (it == metrics_.end()) {
      throw std::logic_error(std::string("perfbench: metric '") + s.name +
                             "' was not measured");
    }
    std::printf("  %-36s %16.6g %s\n", s.name, it->second.value, s.unit);
    selected[s.name] =
        Object{{"value", it->second.value}, {"unit", it->second.unit}};
  }
  const mlpo::json::Value result(Object{{"correct", correct()},
                                        {"attempted", attempted_},
                                        {"failed", failed_},
                                        {"metrics", std::move(selected)}});
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
