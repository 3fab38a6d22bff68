// What one benchmark run produces, the catalogue of metric names it must
// produce, and the printer for the result line.
//
// The catalogue is the contract with BENCHMARK.json: an untraced run
// reports exactly the end-to-end metrics, a traced run exactly the
// per-layer ones, on every workload. A metric that does not apply to a
// workload is still reported — as the value the workload's layer
// arithmetic gives it (zero for a layer the workload bypasses, 1 for the
// share ratio of a single tenant) — so runs stay comparable by name.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "metrics.hpp"

namespace perfbench {

struct Metric {
  f64 value = 0;
  std::string unit;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec>& end_to_end_specs();
const std::vector<MetricSpec>& per_layer_specs();

class Outcome {
 public:
  /// Record a metric; the unit comes from the catalogue. Throws
  /// std::logic_error for a name the catalogue does not list.
  void set(const std::string& name, f64 value);
  /// A correctness failure: the run is reported with correct = false.
  void fail(const std::string& why);
  /// A line for the human-readable summary printed above the result.
  void note(const std::string& line) { notes_.push_back(line); }

  void count_requests(u64 attempted, u64 failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return problems_.empty(); }

  /// Print the summary and, last, the one-line JSON result holding the
  /// end-to-end metrics (traced == false) or the per-layer ones. Throws
  /// std::logic_error when a catalogued metric of that set is missing.
  void print(bool traced) const;

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> problems_;
  std::vector<std::string> notes_;
  u64 attempted_ = 0;
  u64 failed_ = 0;
};

}  // namespace perfbench
