// perfbench: runs one workload of the end-to-end benchmark and prints
// its metrics. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                         [--spans-out FILE]
// See README.md for the workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "telemetry/json.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_p9|select_p1000|sched_trace --seed N --seconds S "
               "--trace 0|1 [--spans-out FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (arg == "--spans-out") {
        o.spans_out = value;
      } else {
        usage(("unknown option " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  // Every workload runs the event engine with one worker; library-internal
  // World::run calls (the apps' rank-order runs, executed scheduler jobs) resolve
  // their engine from these.
  setenv("HMPI_SIM_ENGINE", "event", 1);
  setenv("HMPI_SIM_WORKERS", "1", 1);

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  Result result;
  try {
    if (options.workload == "paper_p9") {
      result = run_paper_p9(options);
    } else if (options.workload == "select_p1000") {
      result = run_select_p1000(options);
    } else if (options.workload == "sched_trace") {
      result = run_sched_trace(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: workload %s aborted: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  if (options.trace && !options.spans_out.empty()) {
    recorder().write_json(options.spans_out, options.workload, options.seed);
  }

  for (const std::string& what : result.check_failures) {
    std::printf("check failed: %s\n", what.c_str());
  }
  const double failed_frac =
      result.attempted > 0
          ? static_cast<double>(result.failed) / static_cast<double>(result.attempted)
          : 1.0;
  std::printf("failed_frac %s (failed %lld of %lld attempted; seed %llu)\n",
              num(failed_frac).c_str(), result.failed, result.attempted,
              static_cast<unsigned long long>(options.seed));
  for (const auto& [name, value] : result.metrics) {
    std::printf("metric %s %s %s\n", name.c_str(), num(value.first).c_str(),
                value.second.c_str());
  }

  using hmpi::telemetry::json_number;
  using hmpi::telemetry::json_quote;
  const bool correct = result.failed == 0 && result.checks_passed &&
                       result.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : result.metrics) {
    std::cout << (first ? "" : ", ") << json_quote(name)
              << ": {\"value\": " << json_number(value.first)
              << ", \"unit\": " << json_quote(value.second) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}
