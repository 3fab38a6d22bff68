// perfbench: run one benchmark workload and print its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]   (default .bench_build/out)
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 it holds the per-layer metrics and
// a Chrome trace is written under <out-dir>/traces/. The exit code is 0
// only for a run whose outputs checked out correct.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "util/logging.hpp"
#include "workload.hpp"

namespace {

using perfbench::Outcome;
using perfbench::RunOptions;
using perfbench::Tracer;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "mlpo_40b|zero3_40b|uring_real|tenancy_3to1 --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               why);
  return 2;
}

bool parse_number(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena for the whole process, set before any thread starts.
  // With glibc's default of one arena per thread (up to 8 per core), the
  // threads a run creates and retires scatter freed memory over arenas in
  // a timing-dependent way, and peak RSS wandered by 10-50% between runs.
  mallopt(M_ARENA_MAX, 1);
  RunOptions opts;
  opts.out_dir = ".bench_build/out";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    double number = 0;
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      if (!parse_number(value, &number) || number < 0 ||
          number != static_cast<double>(static_cast<perfbench::u64>(number))) {
        return usage("--seed must be a non-negative integer");
      }
      opts.seed = static_cast<perfbench::u64>(number);
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_number(value, &number) || !(number > 0) || number > 3600) {
        return usage("--seconds must be in (0, 3600]");
      }
      opts.seconds = number;
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
      opts.trace = value == "1";
      have_trace = true;
    } else if (arg == "--out-dir") {
      opts.out_dir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || opts.workload.empty()) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }

  using Runner = Outcome (*)(const RunOptions&, Tracer&);
  Runner runner = nullptr;
  if (opts.workload == "mlpo_40b") runner = perfbench::run_mlpo_40b;
  if (opts.workload == "zero3_40b") runner = perfbench::run_zero3_40b;
  if (opts.workload == "uring_real") runner = perfbench::run_uring_real;
  if (opts.workload == "tenancy_3to1") runner = perfbench::run_tenancy_3to1;
  if (runner == nullptr) return usage("unknown workload");

  // The library's info logs (admission decisions, cache fallbacks) would
  // interleave with the result; warnings still reach stderr.
  mlpo::set_log_level(mlpo::LogLevel::kWarn);
  try {
    Tracer tracer;
    const Outcome outcome = runner(opts, tracer);
    outcome.print(opts.trace);
    return outcome.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }
}
