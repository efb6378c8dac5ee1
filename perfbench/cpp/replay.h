// Layer replays: the public calls of one layer, timed in isolation on
// inputs shaped like a workload. They cost the calls the request path makes
// but cannot be timed in place without instrumenting the program.
#pragma once

#include <cstddef>
#include <vector>

#include "common/time.h"
#include "measure.h"

namespace perfbench {

/// A repository shaped like a workload: its replica count, window length
/// and the (service, queue) samples its replicas actually reported.
struct ReplayShape {
  std::size_t replicas = 1;
  std::size_t window = 5;
  std::vector<aqua::Duration> service;
  std::vector<aqua::Duration> queuing;
};

/// Adds core.observe_all_us, core.response_pmf_us (uncached model) and
/// core.record_perf_us: mean microseconds per call.
void replay_core(const ReplayShape& shape, Result& result);

/// Adds net.encode_us and net.decode_us: mean microseconds per message
/// over the workload's Request and Reply payloads. A payload that does not
/// survive the round trip fails the result.
void replay_wire(const ReplayShape& shape, Result& result);

}  // namespace perfbench
