// sim_paper: the paper's section 6 experiment in the discrete-event
// simulator — 7 replicas with N(100 ms, 50 ms) service, two clients with
// 1 s think time and 50 requests each, window l = 5 — swept over the
// Fig. 4/5 grid (deadline 100..200 ms x P_c in {0.9, 0.5, 0}) for the
// second client. No sockets or threads: the event kernel, the simulated
// LAN, TimingFaultHandler and the model share the wall time.
#include <algorithm>
#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "gateway/system.h"
#include "obs/telemetry.h"
#include "probes.h"
#include "replay.h"
#include "replica/service_model.h"
#include "stats/variates.h"
#include "workloads.h"

namespace perfbench {

using aqua::Duration;
using aqua::msec;

namespace {

constexpr std::size_t kReplicas = 7;
constexpr std::size_t kWindow = 5;
constexpr std::size_t kRequestsPerClient = 50;
constexpr std::array<double, 3> kProbabilities = {0.9, 0.5, 0.0};
constexpr std::size_t kDeadlines = 11;  // 100, 110, ..., 200 ms
constexpr std::size_t kGridPoints = kProbabilities.size() * kDeadlines;
/// Grid replicates in the fixed block the decision metrics come from.
constexpr std::size_t kReplicates = 10;
/// Equal time slices of an untraced run; throughput is their median rate.
constexpr std::size_t kSegments = 10;

struct Point {
  Duration deadline{};
  double probability = 0.0;
  std::uint64_t seed = 0;
};

Point point_at(std::uint64_t seed, std::size_t index) {
  const std::size_t grid = index % kGridPoints;
  const std::size_t replicate = index / kGridPoints;
  return {msec(100 + 10 * static_cast<std::int64_t>(grid % kDeadlines)),
          kProbabilities[grid / kDeadlines], mix64(seed) + replicate};
}

/// Per-layer accumulators of the traced phase, summed over systems.
struct SimTrace {
  Samples select_us;
  SpanLog* log = nullptr;
  std::uint32_t run = 0;
  std::uint64_t requests = 0;
  std::uint64_t answered = 0;
  std::uint64_t events = 0;
  double wall_s = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t lan_sent = 0;
  std::uint64_t lan_dropped = 0;
  std::uint64_t gateway_requests = 0;
  std::uint64_t gateway_replies = 0;
  std::uint64_t copies = 0;
  std::vector<double> delta_us;
  std::vector<double> queue_wait_us;
  std::vector<double> service_us;
  std::vector<double> path_us;
  std::uint64_t selection_mismatches = 0;
};

/// What one simulated system decided. Everything but the wall-clock
/// fields is a function of the point alone.
struct PointResult {
  std::uint64_t requests = 0;  ///< decided requests, both clients
  std::uint64_t issued = 0;
  std::uint64_t answered = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t measured = 0;  ///< second client's requests
  std::uint64_t timely = 0;
  std::uint64_t redundancy = 0;
  std::uint64_t events = 0;
  std::vector<std::int64_t> latency_us;  ///< second client, t4 - t0 (sim time)
  double setup_s = 0.0;
  double wall_s = 0.0;

  [[nodiscard]] bool same_decisions(const PointResult& o) const {
    return requests == o.requests && issued == o.issued && answered == o.answered &&
           abandoned == o.abandoned && measured == o.measured && timely == o.timely &&
           redundancy == o.redundancy && events == o.events && latency_us == o.latency_us;
  }
};

std::uint64_t counter(aqua::obs::Telemetry& t, const char* name) {
  return t.metrics().counter(name).value();
}

PointResult run_point(const Point& point, SimTrace* trace) {
  PointResult out;
  std::unique_ptr<aqua::obs::Telemetry> telemetry;
  if (trace != nullptr) telemetry = std::make_unique<aqua::obs::Telemetry>();

  const auto start = Clock::now();
  aqua::gateway::SystemConfig system_config;
  system_config.seed = point.seed;
  system_config.telemetry = telemetry.get();
  aqua::gateway::AquaSystem system{system_config};
  for (std::size_t r = 0; r < kReplicas; ++r) {
    system.add_replica(aqua::replica::make_sampled_service(
        aqua::stats::make_truncated_normal(msec(100), msec(50))));
  }
  aqua::gateway::HandlerConfig handler_config;
  handler_config.repository.window_size = kWindow;
  aqua::gateway::ClientWorkload workload;
  workload.total_requests = kRequestsPerClient;
  workload.think_time = aqua::stats::make_constant(aqua::sec(1));
  aqua::gateway::ClientWorkload measured = workload;
  measured.start_delay = msec(137);  // decorrelate the two request trains

  // Traced: Algorithm 1 behind the timing decorator, with a model cache
  // whose counters feed model_cache.*. The handler then charges delta
  // from its uncached estimate, so traced decisions may differ slightly;
  // no end-to-end number comes from this phase.
  std::array<TimedPolicy*, 2> timed{};
  auto policy = [&](std::size_t i) -> aqua::core::PolicyPtr {
    if (trace == nullptr) return nullptr;
    auto cache = std::make_shared<aqua::core::ModelCache>();
    cache->set_telemetry(telemetry.get());
    auto p = std::make_unique<TimedPolicy>(
        aqua::core::make_dynamic_policy(handler_config.selection, handler_config.model, cache),
        trace->select_us, trace->log, trace->run);
    timed[i] = p.get();
    return p;
  };
  aqua::gateway::ClientApp& background = system.add_client(
      aqua::core::QosSpec{msec(200), 0.0}, workload, handler_config, policy(0));
  aqua::gateway::ClientApp& app =
      system.add_client(aqua::core::QosSpec{point.deadline, point.probability}, measured,
                        handler_config, policy(1));
  if (trace != nullptr) {
    timed[0]->set_client(background.handler().client());
    timed[1]->set_client(app.handler().client());
  }
  out.setup_s = seconds_since(start);

  system.run_until_clients_done(aqua::sec(300));
  out.wall_s = seconds_since(start);
  out.events = system.simulator().executed_events();

  for (const aqua::gateway::ClientApp* client : {&background, &app}) {
    out.issued += client->issued();
    out.answered += client->answered();
    out.abandoned += client->abandoned();
    const bool is_measured = client == &app;
    for (const auto& record : client->handler().history()) {
      if (record.probe) continue;
      ++out.requests;
      if (!is_measured) continue;
      ++out.measured;
      out.redundancy += record.redundancy;
      if (record.timely) ++out.timely;
      if (record.response_time) out.latency_us.push_back(aqua::count_us(*record.response_time));
    }
  }

  if (trace != nullptr) {
    aqua::obs::Telemetry& tel = *telemetry;
    trace->requests += out.requests;
    trace->answered += out.answered;
    trace->events += out.events;
    trace->wall_s += out.wall_s;
    const std::uint64_t hits = counter(tel, "model_cache.hits");
    trace->cache_hits += hits;
    trace->cache_lookups += hits + counter(tel, "model_cache.misses");
    trace->lan_sent += counter(tel, "lan.sent");
    trace->lan_dropped += counter(tel, "lan.dropped");
    trace->gateway_requests += counter(tel, "gateway.requests");
    trace->gateway_replies += counter(tel, "gateway.replies");
    trace->copies += counter(tel, "replica.replies");
    for (const auto& s : tel.selection_traces()) {
      trace->delta_us.push_back(static_cast<double>(aqua::count_us(s.overhead_delta)));
    }
    for (const auto& span : tel.spans()) {
      const auto us = static_cast<double>(aqua::count_us(span.end - span.start));
      if (span.kind == aqua::obs::SpanKind::kQueueWait) trace->queue_wait_us.push_back(us);
      if (span.kind == aqua::obs::SpanKind::kService) trace->service_us.push_back(us);
    }
    for (const auto& tr : tel.request_traces()) {
      if (tr.probe || !tr.answered || !tr.response_time) continue;
      trace->path_us.push_back(static_cast<double>(
          aqua::count_us(*tr.response_time - tr.queuing_delay - tr.service_time)));
    }
    // The span trace ids assume one selection per request.
    if (timed[0]->selections() != background.handler().history().size() ||
        timed[1]->selections() != app.handler().history().size()) {
      ++trace->selection_mismatches;
    }
    ++trace->run;
  }
  return out;
}

void check_point(const PointResult& p, Result& result) {
  result.attempted += p.issued;
  result.failed += p.issued - p.answered;
  if (p.issued != p.answered + p.abandoned) result.fail("sim: issued != answered + abandoned");
  if (p.issued != 2 * kRequestsPerClient || p.requests != p.issued) {
    result.fail("sim: a client did not issue its full workload");
  }
  if (p.abandoned > 0 || p.latency_us.size() != p.measured) {
    result.fail("sim: requests went unanswered");
  }
}

void end_to_end(const Options& options, Result& result) {
  // The decision metrics come from a fixed block of systems (the grid,
  // kReplicates times), so they are exact functions of the seed. The run
  // then cycles through the block again until the time is up: every
  // repeated system must decide exactly as its first run did, and all of
  // them count toward throughput.
  constexpr std::size_t kBlock = kGridPoints * kReplicates;
  std::vector<PointResult> first;
  std::vector<double> setups;
  std::uint64_t simulated = 0;
  std::uint64_t rechecked = 0;
  std::vector<std::pair<double, std::uint64_t>> finished;  // (seconds in, requests)
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kBlock || rechecked == 0 || seconds_since(start) < options.seconds;
       ++i) {
    PointResult p = run_point(point_at(options.seed, i % kBlock), nullptr);
    check_point(p, result);
    simulated += p.requests;
    finished.emplace_back(seconds_since(start), p.requests);
    if (i < kBlock) {
      setups.push_back(p.setup_s);
      first.push_back(std::move(p));
    } else {
      ++rechecked;
      if (!p.same_decisions(first[i % kBlock])) {
        result.fail("sim: a repeated run of point " + std::to_string(i % kBlock) +
                    " decided differently");
      }
    }
  }
  const double wall = seconds_since(start);
  const double rss = peak_rss_mb();
  // Throughput is the median rate over kSegments equal slices of the run,
  // each system counted in the slice it finished in.
  std::vector<double> rates(kSegments, 0.0);
  const double slice = wall / static_cast<double>(kSegments);
  for (const auto& [at, requests] : finished) {
    rates[std::min(kSegments - 1, static_cast<std::size_t>(at / slice))] +=
        static_cast<double>(requests) / slice;
  }

  std::vector<double> latency;
  std::uint64_t measured = 0;
  std::uint64_t timely = 0;
  std::uint64_t redundancy = 0;
  for (const PointResult& p : first) {
    measured += p.measured;
    timely += p.timely;
    redundancy += p.redundancy;
    for (std::int64_t us : p.latency_us) latency.push_back(static_cast<double>(us));
  }
  const auto n = static_cast<double>(measured);
  result.add("throughput_rps", median(rates), "1/s", rates.size());
  result.note("mean rps " + std::to_string(static_cast<double>(simulated) / wall));
  result.add("latency_p50_us", nearest_rank(latency, 0.50), "us", latency.size());
  result.add("timely_fraction", static_cast<double>(timely) / n, "ratio", measured);
  result.add("replicas_per_request", static_cast<double>(redundancy) / n, "count", measured);
  result.add("setup_s", median(setups), "s", setups.size());
  result.add("peak_rss_mb", rss, "MiB");
  result.note("determinism: " + std::to_string(rechecked) +
              " repeated systems decided exactly as their first run");
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void per_layer(const Options& options, Result& result) {
  const double half = options.seconds / 2.0;
  // Untraced reference for obs.trace_overhead, and the per-layer p99.
  std::uint64_t untraced_requests = 0;
  std::vector<double> latency;
  std::size_t i = 0;
  auto start = Clock::now();
  while (i == 0 || seconds_since(start) < half) {
    const PointResult p = run_point(point_at(options.seed, i++), nullptr);
    check_point(p, result);
    untraced_requests += p.requests;
    for (std::int64_t us : p.latency_us) latency.push_back(static_cast<double>(us));
  }
  const double untraced_rps = static_cast<double>(untraced_requests) / seconds_since(start);
  result.add("latency_p99_us", nearest_rank(latency, 0.99), "us", latency.size());

  SpanLog log(1 << 16);
  SimTrace trace;
  trace.log = &log;
  std::uint64_t traced_requests = 0;
  i = 0;
  start = Clock::now();
  while (i == 0 || seconds_since(start) < half) {
    const PointResult p = run_point(point_at(options.seed, i++), &trace);
    check_point(p, result);
    traced_requests += p.requests;
  }
  const double traced_rps = static_cast<double>(traced_requests) / seconds_since(start);

  const auto select = trace.select_us.take();
  double select_total = 0.0;
  for (double us : select) select_total += us;
  const auto requests = static_cast<double>(trace.requests);

  result.add("core.select_us.p50", nearest_rank(select, 0.5), "us", select.size());
  result.add("core.select_us.p99", nearest_rank(select, 0.99), "us", select.size());
  // In simulated time a request's latency is not wall time; the share is
  // of the wall time the simulator spent, the quantity Fig. 3 splits.
  result.add("core.select_share", ratio(select_total / 1e6, trace.wall_s), "ratio");
  result.add("core.model_cache_hit_ratio",
             ratio(static_cast<double>(trace.cache_hits), static_cast<double>(trace.cache_lookups)),
             "ratio", trace.cache_lookups);
  result.add("net.send_us.p50", 0.0, "us");
  result.add("net.send_us.p99", 0.0, "us");
  result.add("net.messages_per_request", ratio(static_cast<double>(trace.lan_sent), requests),
             "count");
  result.add("net.retransmits_per_1k", 0.0, "count");
  result.add("net.dropped_per_1k",
             ratio(1000.0 * static_cast<double>(trace.lan_dropped), static_cast<double>(trace.lan_sent)),
             "count");
  result.add("net.ack_rtt_us.mean", 0.0, "us");
  result.add("runtime.client_receive_us.p50", 0.0, "us");
  result.add("runtime.endpoint_receive_us.p50", 0.0, "us");
  result.add("runtime.path_overhead_us.p50", nearest_rank(trace.path_us, 0.5), "us",
             trace.path_us.size());
  result.add("replica.queue_wait_us.p50", nearest_rank(trace.queue_wait_us, 0.5), "us",
             trace.queue_wait_us.size());
  result.add("replica.queue_wait_us.p99", nearest_rank(trace.queue_wait_us, 0.99), "us",
             trace.queue_wait_us.size());
  result.add("replica.service_us.p50", nearest_rank(trace.service_us, 0.5), "us",
             trace.service_us.size());
  result.add("replica.copies_per_request", ratio(static_cast<double>(trace.copies), requests),
             "count");
  result.add("replica.useful_ratio",
             ratio(static_cast<double>(trace.answered), static_cast<double>(trace.copies)), "ratio");
  result.add("sim.events_per_request", ratio(static_cast<double>(trace.events), requests), "count");
  result.add("sim.events_per_s", ratio(static_cast<double>(trace.events), trace.wall_s), "1/s");
  result.add("gateway.replies_per_request",
             ratio(static_cast<double>(trace.gateway_replies),
                   static_cast<double>(trace.gateway_requests)),
             "count");
  result.add("gateway.delta_us", nearest_rank(trace.delta_us, 0.5), "us", trace.delta_us.size());
  result.add("obs.trace_overhead", 1.0 - ratio(traced_rps, untraced_rps), "ratio");

  ReplayShape replay{kReplicas, kWindow, {}, {}};
  for (double us : trace.service_us) replay.service.push_back(Duration{static_cast<std::int64_t>(us)});
  for (double us : trace.queue_wait_us) {
    replay.queuing.push_back(Duration{static_cast<std::int64_t>(us)});
  }
  replay_core(replay, result);
  replay_wire(replay, result);

  if (trace.selection_mismatches > 0) {
    result.note(std::to_string(trace.selection_mismatches) +
                " systems selected more than once per request; their select span trace ids "
                "are approximate");
  }
  if (!options.spans_out.empty() && !log.write_csv(options.spans_out)) {
    result.fail("cannot write spans to " + options.spans_out);
  }
  result.note("bench spans kept " + std::to_string(log.kept()) + ", dropped past capacity " +
              std::to_string(log.dropped()));
}

}  // namespace

Result run_sim(const Options& options) {
  Result result;
  if (options.traced) {
    per_layer(options, result);
  } else {
    end_to_end(options, result);
  }
  return result;
}

}  // namespace perfbench
