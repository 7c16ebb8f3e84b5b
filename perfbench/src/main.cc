// perfbench: the repository benchmark driver. One run of one workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>] [--tamper-reference]
//
// Prints a host fingerprint line, then, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when any
// operation failed or any reply differed from its in-process reference.

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/simd.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<online_small|bulk_select|routed_remote_crowd> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <file>] "
               "[--tamper-reference]\n",
               why);
  std::exit(2);
}

/// JSON has no NaN or infinity; a metric that is not finite is a bug.
double Finite(const std::string& name, double value) {
  if (std::isfinite(value)) return value;
  std::fprintf(stderr, "perfbench: metric %s is not finite\n", name.c_str());
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      char* end = nullptr;
      const std::string text = value();
      args.seed = std::strtoull(text.c_str(), &end, 10);
      if (text.empty() || *end != '\0') Usage("--seed takes an integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value().c_str());
      if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
        Usage("--seconds takes a number in (0, 600]");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      const std::string text = value();
      if (text != "0" && text != "1") Usage("--trace takes 0 or 1");
      args.trace = text == "1";
      have_trace = true;
    } else if (flag == "--spans-out") {
      args.spans_out = value();
    } else if (flag == "--tamper-reference") {
      args.tamper = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == args.workload;
  }
  if (!known) Usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace) {
    Usage("--seed, --seconds and --trace are required");
  }
  std::signal(SIGPIPE, SIG_IGN);

  const perfbench::RunResult result = perfbench::RunWorkload(args);

  std::printf(
      "perfbench-host {\"nproc\": %u, \"isa\": \"%s\", \"build_type\": "
      "\"%s\", \"compiler\": \"%s\"}\n",
      std::thread::hardware_concurrency(),
      crowdfusion::common::SimdLevelName(
          crowdfusion::common::ActiveSimdLevel()),
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
  std::string metrics;
  for (const perfbench::Metric& metric : result.metrics) {
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", metric.name.c_str(),
                  Finite(metric.name, metric.value), metric.unit.c_str());
    metrics += buffer;
  }
  const bool correct = result.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
