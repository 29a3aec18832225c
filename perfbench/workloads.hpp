// The benchmark's three workloads. Each builds its inputs from the seed,
// measures for about `seconds`, checks the program's outputs and returns its
// metrics: the end-to-end set with tracing off, the per-layer set with it on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // scratch files and the span dump
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> gate_failures;  // empty when every output checked out
  std::vector<Metric> metrics;             // the JSON result, in BENCHMARK.json order
  std::vector<Metric> report;              // further figures, printed by name only
};

Outcome run_plan_orion(const Options& options);
Outcome run_serve_zonal(const Options& options);
Outcome run_cancel_orion(const Options& options);

}  // namespace perfbench
