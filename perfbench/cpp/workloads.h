// The benchmark's workloads. Each run takes its inputs from the seed alone,
// measures for the given number of seconds, checks the program's outputs
// and returns the metrics: end-to-end metrics from an untraced run, or,
// with `traced`, the per-layer metrics of a separate traced run.
#pragma once

#include <cstdint>
#include <string>

#include "measure.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// Where the traced run writes its bench spans (empty = not written).
  std::string spans_out;
};

/// udp_small, inproc_small and udp_deep: ThreadedSystem driven closed loop
/// by two client threads.
[[nodiscard]] Result run_threaded(const Options& options);

/// sim_paper: the paper's section 6 setup swept over the Fig. 4/5 grid in
/// the discrete-event simulator.
[[nodiscard]] Result run_sim(const Options& options);

[[nodiscard]] bool is_threaded_workload(const std::string& name);

}  // namespace perfbench
