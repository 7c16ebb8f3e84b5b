#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Per-layer run (decorators and spans) instead of the end-to-end run.
  bool trace = false;
  /// Self-test hook: corrupt one reference so its replies must fail.
  bool tamper = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_out;
};

struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
};

/// The workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload end to end (or traced) and returns its metrics.
RunResult RunWorkload(const RunArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
