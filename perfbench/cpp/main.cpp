// aqua_perfbench: runs one benchmark workload and prints its metrics.
//
//   aqua_perfbench --workload <udp_small|inproc_small|udp_deep|sim_paper>
//                  --seed <n> --seconds <s> --trace <0|1> [--spans-out <path>]
//
// Human-readable lines come first; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics of an untraced run, --trace 1 the
// per-layer metrics of a separate traced run. The exit code is 0 only when
// every output check passed; bad arguments exit 2 without a result.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void usage(const char* problem) {
  std::fprintf(stderr,
               "aqua_perfbench: %s\nusage: aqua_perfbench --workload "
               "<udp_small|inproc_small|udp_deep|sim_paper> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-out <path>]\n",
               problem);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0) || options.seconds > 600.0) {
        usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.traced = value == "1";
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!perfbench::is_threaded_workload(options.workload) && options.workload != "sim_paper") {
    usage(("unknown workload " + options.workload).c_str());
  }
  return options;
}

void print(const perfbench::Options& options, perfbench::Result& result) {
  for (const auto& m : result.metrics) {
    if (!std::isfinite(m.value)) result.fail(m.name + " is not a finite number");
  }
  std::printf("workload %s seed %llu seconds %g trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.traced ? 1 : 0);
  for (const auto& m : result.metrics) {
    if (m.samples > 0) {
      std::printf("  %-34s %16.6f %-6s (n=%zu)\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.samples);
    } else {
      std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  for (const auto& line : result.notes) std::printf("  note: %s\n", line.c_str());
  for (const auto& line : result.problems) std::printf("  CHECK FAILED: %s\n", line.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  const char* sep = "";
  for (const auto& m : result.metrics) {
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, m.name.c_str(), value,
                m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  perfbench::Result result;
  try {
    result = perfbench::is_threaded_workload(options.workload) ? perfbench::run_threaded(options)
                                                               : perfbench::run_sim(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aqua_perfbench: %s\n", e.what());
    return 3;
  }
  if (result.attempted == 0) result.fail("no request was attempted");
  print(options, result);
  return result.correct ? 0 : 1;
}
