// nptsn_perfbench: one workload of the end-to-end planner benchmark.
//
//   nptsn_perfbench --workload plan-orion|serve-zonal|cancel-orion --seed N
//                   --seconds S --trace 0|1 --work-dir DIR
//
// Prints each figure as "name = value unit", then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exits 1 when an
// output fails its correctness check, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

constexpr double kNotFinite = 1e300;

int usage(const char* why) {
  std::fprintf(stderr,
               "nptsn_perfbench: %s\n"
               "usage: nptsn_perfbench --workload plan-orion|serve-zonal|cancel-orion "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n",
               why);
  return 2;
}

void print_json(const perfbench::Outcome& outcome) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              outcome.gate_failures.empty() ? "true" : "false",
              static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed));
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const perfbench::Metric& metric = outcome.metrics[i];
    // JSON has no infinity: a latency that failed requests made +inf (or a
    // figure that could not be measured) is written as 1e300.
    const double value = std::isfinite(metric.value) ? metric.value : kNotFinite;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metric.name.c_str(), value, metric.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && options.seconds > 0.0 &&
                     options.seconds <= 600.0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || options.work_dir.empty()) {
    return usage("--seed, --seconds (0 < S <= 600), --trace and --work-dir are required");
  }

  perfbench::Outcome outcome;
  try {
    std::filesystem::create_directories(options.work_dir);
    if (options.workload == "plan-orion") {
      outcome = perfbench::run_plan_orion(options);
    } else if (options.workload == "serve-zonal") {
      outcome = perfbench::run_serve_zonal(options);
    } else if (options.workload == "cancel-orion") {
      outcome = perfbench::run_cancel_orion(options);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nptsn_perfbench: %s failed: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const perfbench::Metric& metric : outcome.report) {
    std::printf("%s = %.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  for (const std::string& failure : outcome.gate_failures) {
    std::fprintf(stderr, "correctness check failed: %s\n", failure.c_str());
  }
  std::fflush(stderr);
  print_json(outcome);
  return outcome.gate_failures.empty() ? 0 : 1;
}
