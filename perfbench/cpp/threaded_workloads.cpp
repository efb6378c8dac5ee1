// udp_small, inproc_small and udp_deep: a ThreadedSystem (replica worker
// threads, ThreadedClient gateways) in this process, driven closed loop by
// one thread per client with zero think time. UDP traffic stays on
// 127.0.0.1 with kernel-chosen ports.
#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/udp_transport.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "probes.h"
#include "replay.h"
#include "runtime/threaded_system.h"
#include "stats/variates.h"
#include "workloads.h"

namespace perfbench {

using aqua::Duration;
using aqua::msec;
using aqua::usec;

namespace {

struct Shape {
  bool udp = true;
  std::size_t replicas = 4;
  /// Service-time distribution (truncated normal); zero mean = no service.
  Duration service_mean{};
  Duration service_sd{};
  std::size_t window = 5;
  /// Two closed-loop clients; a tight/loose pair on udp_deep.
  std::array<aqua::core::QosSpec, 2> qos;
};

Shape shape_for(const std::string& workload) {
  Shape s;
  if (workload == "udp_deep") {
    s.replicas = 5;
    s.service_mean = usec(1000);
    s.service_sd = usec(500);
    s.window = 20;
    s.qos = {aqua::core::QosSpec{usec(2500), 0.9}, aqua::core::QosSpec{msec(5), 0.0}};
  } else {
    s.udp = workload == "udp_small";
    s.qos = {aqua::core::QosSpec{msec(2), 0.9}, aqua::core::QosSpec{msec(2), 0.9}};
  }
  return s;
}

/// Give up well past one UDP retransmit (20 ms), so a lost datagram shows as
/// a late answer rather than an unanswered request.
constexpr Duration kGiveUpFloor = msec(100);

/// One assembled system. Members are destroyed bottom-up: the system (and
/// with it every endpoint on the transport) before the transport, the
/// telemetry hub last.
struct Deployment {
  std::unique_ptr<aqua::obs::Telemetry> telemetry;
  std::unique_ptr<aqua::net::UdpTransport> udp;
  std::unique_ptr<TimedTransport> timed;
  std::unique_ptr<aqua::runtime::ThreadedSystem> system;
  /// Requests invoked per client so far: ThreadedClient numbers its
  /// requests 1, 2, ... in invoke order, which makes this the request id
  /// of the next call and lets bench spans carry the program's trace ids.
  std::vector<std::uint64_t> invoked;
};

std::unique_ptr<Deployment> build(const Shape& shape, std::uint64_t seed,
                                  TransportProbes* probes) {
  auto d = std::make_unique<Deployment>();
  aqua::runtime::ThreadedSystemConfig config;
  config.seed = mix64(seed);
  if (probes != nullptr) {
    d->telemetry = std::make_unique<aqua::obs::Telemetry>();
    config.telemetry = d->telemetry.get();
  }
  if (shape.udp) {
    d->udp = std::make_unique<aqua::net::UdpTransport>();
    if (d->telemetry != nullptr) d->udp->set_telemetry(d->telemetry.get());
    config.transport = d->udp.get();
    if (probes != nullptr) {
      d->timed = std::make_unique<TimedTransport>(*d->udp, *probes);
      config.transport = d->timed.get();
    }
  }
  config.client.repository.window_size = shape.window;
  config.client.net = aqua::runtime::NetDelayModel{.base = Duration::zero(),
                                                   .jitter_max = Duration::zero(),
                                                   .modulation = nullptr};
  const Duration tightest = std::min(shape.qos[0].deadline, shape.qos[1].deadline);
  config.client.give_up_deadline_factor =
      std::max(4, static_cast<int>((kGiveUpFloor + tightest - usec(1)) / tightest));
  d->system = std::make_unique<aqua::runtime::ThreadedSystem>(config);
  const aqua::stats::SamplerPtr service =
      shape.service_mean == Duration::zero()
          ? aqua::stats::make_constant(Duration::zero())
          : aqua::stats::make_truncated_normal(shape.service_mean, shape.service_sd);
  for (std::size_t r = 0; r < shape.replicas; ++r) d->system->add_replica(service);
  for (const auto& qos : shape.qos) d->system->add_client(qos);
  d->invoked.assign(shape.qos.size(), 0);
  return d;
}

/// One request as its client thread saw it, packed to 8 bytes: the buffers are
/// allocated and touched before timing starts, so the bench's own memory
/// does not grow with throughput and peak_rss_mb tracks the system.
struct Sample {
  float latency_us = 0.0F;     ///< measured around invoke(), nanosecond clock
  std::uint16_t select_us = 0; ///< Outcome::selection_overhead, saturated
  std::uint8_t redundancy = 0;
  std::uint8_t flags = 0;

  static constexpr std::uint8_t kAnswered = 1;
  static constexpr std::uint8_t kTimely = 2;
  static constexpr std::uint8_t kCorrect = 4;
  static constexpr std::uint8_t kCold = 8;
  [[nodiscard]] bool has(std::uint8_t flag) const { return (flags & flag) != 0; }
};

/// Sample buffer reserved per client and second of timed load; a faster
/// client grows its buffer past this.
constexpr double kSamplesPerClientSecond = 60000.0;

/// Timed segments per untraced run.
constexpr std::size_t kSegments = 10;

struct Load {
  std::vector<Sample> samples;
  double wall_s = 0.0;
  std::uint64_t issued = 0;
  std::uint64_t answered = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t wrong = 0;
  std::uint64_t cold = 0;
};

/// Per-client sample buffers for one phase, allocated and touched before
/// the phase starts; a phase may span several systems (segments).
struct Recorder {
  std::vector<std::vector<Sample>> per_client;
  std::vector<std::size_t> used;
  double wall_s = 0.0;

  Recorder(std::size_t clients, std::size_t capacity)
      : per_client(clients, std::vector<Sample>(capacity)), used(clients, 0) {}

  void record(std::size_t client, const Sample& s) {
    auto& out = per_client[client];
    if (used[client] < out.size()) {
      out[used[client]] = s;
    } else {
      out.push_back(s);
    }
    ++used[client];
  }

  [[nodiscard]] Load load() const {
    Load load;
    load.wall_s = wall_s;
    for (std::size_t c = 0; c < per_client.size(); ++c) {
      for (std::size_t i = 0; i < used[c]; ++i) {
        const Sample& s = per_client[c][i];
        ++load.issued;
        if (s.has(Sample::kAnswered)) ++load.answered;
        if (!s.has(Sample::kAnswered)) ++load.unanswered;
        if (s.has(Sample::kAnswered) && !s.has(Sample::kCorrect)) ++load.wrong;
        if (s.has(Sample::kCold)) ++load.cold;
        load.samples.push_back(s);
      }
    }
    return load;
  }
};

/// Closed loop: each client thread issues its next request as soon as the
/// previous one returns, either `count` requests or until `seconds` pass.
/// Arguments are unique per request and drawn from the seed; replicas echo
/// them, so a reply carrying any other value is a wrong result.
void drive(Deployment& d, std::uint64_t seed, std::size_t count, double seconds, SpanLog* log,
           Recorder& recorder) {
  const auto clients = d.system->clients();
  std::atomic<bool> go{false};
  Clock::time_point stop{};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      aqua::runtime::ThreadedClient& client = *clients[c];
      // ThreadedSystem numbers clients 1, 2, ... in creation order.
      const aqua::ClientId client_id{c + 1};
      for (std::size_t n = 0;; ++n) {
        if (count > 0 ? n >= count : Clock::now() >= stop) break;
        const std::uint64_t request = ++d.invoked[c];
        const auto argument = static_cast<std::int64_t>(
            mix64(seed ^ (static_cast<std::uint64_t>(c) << 56) ^ request) >> 2);
        const std::int64_t t0 = now_ns();
        const auto outcome = client.invoke(argument);
        const std::int64_t t1 = now_ns();
        Sample s;
        s.latency_us = static_cast<float>(static_cast<double>(t1 - t0) / 1000.0);
        s.select_us = static_cast<std::uint16_t>(
            std::min<std::int64_t>(aqua::count_us(outcome.selection_overhead), 0xffff));
        s.redundancy = static_cast<std::uint8_t>(std::min<std::size_t>(outcome.redundancy, 0xff));
        const bool correct = outcome.answered && outcome.result == argument;
        s.flags = static_cast<std::uint8_t>((outcome.answered ? Sample::kAnswered : 0) |
                                            (correct ? Sample::kCorrect : 0) |
                                            (correct && outcome.timely ? Sample::kTimely : 0) |
                                            (outcome.cold_start ? Sample::kCold : 0));
        recorder.record(c, s);
        if (log != nullptr) {
          const std::uint64_t trace =
              aqua::obs::make_trace_id(client_id, aqua::RequestId{request});
          log->record({"client.invoke", 0, trace, trace, 0, t0, t1});
        }
      }
    });
  }
  const Clock::time_point start = Clock::now();
  stop = start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  recorder.wall_s += seconds_since(start);
}

/// Buffers for `seconds` of timed load on every client.
Recorder recorder_for(const Shape& shape, double seconds) {
  return Recorder(shape.qos.size(), static_cast<std::size_t>(seconds * kSamplesPerClientSecond));
}

/// Requests per client before timing starts: at |K| >= 1 every replica's
/// window sees at least 2l samples on average, and no timed selection is a
/// cold start (any that is gets counted).
std::size_t warm_requests(const Shape& shape) { return 2 * shape.window * shape.replicas; }

std::vector<double> latencies(const Load& load) {
  std::vector<double> out;
  out.reserve(load.samples.size());
  for (const Sample& s : load.samples) out.push_back(s.latency_us);
  return out;
}

double throughput(const Load& load) {
  return static_cast<double>(load.answered - load.wrong) / load.wall_s;
}

/// The request accounting every run checks, traced or not.
void check_load(const Load& load, const char* phase, Result& result) {
  result.attempted += load.issued;
  result.failed += load.unanswered + load.wrong;
  if (load.wrong > 0) {
    result.fail(std::string(phase) + ": " + std::to_string(load.wrong) +
                " replies carried another request's result");
  }
  if (load.unanswered > 0) {
    result.fail(std::string(phase) + ": " + std::to_string(load.unanswered) +
                " requests went unanswered");
  }
  if (load.issued == 0) result.fail(std::string(phase) + ": no request completed");
}

/// A single setup: build the system and warm every repository.
std::unique_ptr<Deployment> set_up(const Shape& shape, std::uint64_t seed,
                                   TransportProbes* probes, double& setup_s, Result& result) {
  const auto start = Clock::now();
  auto d = build(shape, seed, probes);
  Recorder warm(shape.qos.size(), warm_requests(shape));
  drive(*d, seed ^ 0x77a3ULL, warm_requests(shape), 0.0, nullptr, warm);
  setup_s = seconds_since(start);
  check_load(warm.load(), "warm-up", result);
  return d;
}

void end_to_end(const Shape& shape, const Options& options, Result& result) {
  // The timed load is split into kSegments equal segments, each on a
  // freshly set-up system (own threads, sockets and sub-seed). Throughput
  // is the median segment rate, so a stretch of host contention that hits
  // a few segments does not set the figure; set-up time is the median too.
  std::vector<double> setups;
  std::vector<double> rates;
  Recorder recorder = recorder_for(shape, options.seconds);
  for (std::size_t i = 0; i < kSegments; ++i) {
    const std::uint64_t seed = mix64(options.seed) + i;
    double setup_s = 0.0;
    auto d = set_up(shape, seed, nullptr, setup_s, result);
    setups.push_back(setup_s);
    const std::size_t before = recorder.used[0] + recorder.used[1];
    const double wall_before = recorder.wall_s;
    drive(*d, seed, 0, options.seconds / kSegments, nullptr, recorder);
    rates.push_back(static_cast<double>(recorder.used[0] + recorder.used[1] - before) /
                    (recorder.wall_s - wall_before));
  }
  const double rss = peak_rss_mb();
  const Load load = recorder.load();
  check_load(load, "measure", result);

  const auto lat = latencies(load);
  double timely = 0.0;
  double redundancy = 0.0;
  for (const Sample& s : load.samples) {
    timely += s.has(Sample::kTimely) ? 1.0 : 0.0;
    redundancy += s.redundancy;
  }
  const auto n = static_cast<double>(load.samples.size());
  result.add("throughput_rps", median(rates), "1/s", rates.size());
  result.note("mean rps " + std::to_string(throughput(load)));
  result.add("latency_p50_us", nearest_rank(lat, 0.50), "us", lat.size());
  result.add("timely_fraction", timely / n, "ratio", load.samples.size());
  result.add("replicas_per_request", redundancy / n, "count", load.samples.size());
  result.add("setup_s", median(setups), "s", setups.size());
  result.add("peak_rss_mb", rss, "MiB");
  if (load.cold > 0) {
    result.note(std::to_string(load.cold) + " timed selections were cold starts");
  }
}

std::uint64_t counter(aqua::obs::Telemetry& t, const char* name) {
  return t.metrics().counter(name).value();
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void per_layer(const Shape& shape, const Options& options, Result& result) {
  const double half = options.seconds / 2.0;
  // Untraced reference phase: throughput for obs.trace_overhead and the
  // per-layer p99 (latency_p99_us is not steady enough end to end).
  double untraced_rps = 0.0;
  {
    double setup_s = 0.0;
    auto d = set_up(shape, options.seed, nullptr, setup_s, result);
    Recorder recorder = recorder_for(shape, half);
    drive(*d, options.seed, 0, half, nullptr, recorder);
    d.reset();
    const Load load = recorder.load();
    check_load(load, "untraced", result);
    untraced_rps = throughput(load);
    const auto lat = latencies(load);
    result.add("latency_p99_us", nearest_rank(lat, 0.99), "us", lat.size());
  }

  SpanLog log(1 << 17);
  TransportProbes probes;
  probes.log = &log;
  double setup_s = 0.0;
  auto d = set_up(shape, options.seed, &probes, setup_s, result);
  // Drop the warm-up's transport timings; counters are differenced below.
  (void)probes.send_us.take();
  (void)probes.client_receive_us.take();
  (void)probes.endpoint_receive_us.take();
  aqua::obs::Telemetry& tel = *d->telemetry;
  const aqua::TimePoint phase_start = tel.wall_now();
  const std::uint64_t requests0 = counter(tel, "threaded.requests");
  const std::uint64_t answered0 = counter(tel, "threaded.answered");
  const std::uint64_t copies0 = counter(tel, "threaded_replica.replies");
  const std::uint64_t sent0 = d->udp ? d->udp->messages_sent() : 0;
  const std::uint64_t resent0 = d->udp ? d->udp->messages_retransmitted() : 0;
  const std::uint64_t dropped0 = d->udp ? d->udp->messages_dropped() : 0;
  auto& rtt = tel.metrics().histogram("lan.ack_rtt_us");
  const std::uint64_t rtt_n0 = rtt.count();
  const std::int64_t rtt_sum0 = rtt.sum();

  Recorder recorder = recorder_for(shape, half);
  drive(*d, options.seed, 0, half, &log, recorder);

  const std::uint64_t requests = counter(tel, "threaded.requests") - requests0;
  const std::uint64_t answered = counter(tel, "threaded.answered") - answered0;
  const double copies = static_cast<double>(counter(tel, "threaded_replica.replies") - copies0);
  const double sent = d->udp ? static_cast<double>(d->udp->messages_sent() - sent0) : 0.0;
  const double resent = d->udp ? static_cast<double>(d->udp->messages_retransmitted() - resent0) : 0.0;
  const double dropped = d->udp ? static_cast<double>(d->udp->messages_dropped() - dropped0) : 0.0;
  const double rtt_n = static_cast<double>(rtt.count() - rtt_n0);
  const double rtt_sum = static_cast<double>(rtt.sum() - rtt_sum0);
  const auto spans = tel.spans();
  const auto traces = tel.request_traces();
  d.reset();  // quiesce every thread before reading the probes
  const Load load = recorder.load();
  check_load(load, "traced", result);
  // The clients' own accounting must match what their threads saw.
  if (requests != load.issued || answered != load.answered) {
    result.fail("traced: threaded.requests/answered counters disagree with the client threads");
  }

  const auto issued = static_cast<double>(load.issued);
  const double traced_rps = throughput(load);
  std::vector<double> select;
  for (const Sample& s : load.samples) select.push_back(static_cast<double>(s.select_us));
  const double select_p50 = nearest_rank(select, 0.5);
  const double latency_p50 = nearest_rank(latencies(load), 0.5);

  std::vector<double> queue_wait;
  std::vector<double> service;
  for (const auto& span : spans) {
    if (span.start < phase_start) continue;
    const auto us = static_cast<double>(aqua::count_us(span.end - span.start));
    if (span.kind == aqua::obs::SpanKind::kQueueWait) queue_wait.push_back(us);
    if (span.kind == aqua::obs::SpanKind::kService) service.push_back(us);
  }
  // Signed residual of the stage budget: end to end minus the winning
  // replica's queue wait and service time.
  std::vector<double> path;
  for (const auto& tr : traces) {
    if (tr.t0 < phase_start || !tr.answered || !tr.response_time) continue;
    path.push_back(static_cast<double>(
        aqua::count_us(*tr.response_time - tr.queuing_delay - tr.service_time)));
  }
  const auto send = probes.send_us.take();
  const auto client_rx = probes.client_receive_us.take();
  const auto endpoint_rx = probes.endpoint_receive_us.take();

  result.add("core.select_us.p50", select_p50, "us", select.size());
  result.add("core.select_us.p99", nearest_rank(select, 0.99), "us", select.size());
  result.add("core.select_share", ratio(select_p50, latency_p50), "ratio");
  // ThreadedClient keeps its model cache private and exports no
  // model_cache.* counters; the ratio is only measured on sim_paper.
  result.add("core.model_cache_hit_ratio", 0.0, "ratio");
  result.add("net.send_us.p50", nearest_rank(send, 0.5), "us", send.size());
  result.add("net.send_us.p99", nearest_rank(send, 0.99), "us", send.size());
  result.add("net.messages_per_request", ratio(sent, issued), "count");
  result.add("net.retransmits_per_1k", ratio(1000.0 * resent, sent), "count");
  result.add("net.dropped_per_1k", ratio(1000.0 * dropped, sent), "count");
  result.add("net.ack_rtt_us.mean", ratio(rtt_sum, rtt_n), "us", static_cast<std::size_t>(rtt_n));
  result.add("runtime.client_receive_us.p50", nearest_rank(client_rx, 0.5), "us", client_rx.size());
  result.add("runtime.endpoint_receive_us.p50", nearest_rank(endpoint_rx, 0.5), "us",
             endpoint_rx.size());
  result.add("runtime.path_overhead_us.p50", nearest_rank(path, 0.5), "us", path.size());
  result.add("replica.queue_wait_us.p50", nearest_rank(queue_wait, 0.5), "us", queue_wait.size());
  result.add("replica.queue_wait_us.p99", nearest_rank(queue_wait, 0.99), "us", queue_wait.size());
  result.add("replica.service_us.p50", nearest_rank(service, 0.5), "us", service.size());
  result.add("replica.copies_per_request", ratio(copies, issued), "count");
  result.add("replica.useful_ratio",
             ratio(static_cast<double>(load.answered - load.wrong), copies), "ratio");
  result.add("sim.events_per_request", 0.0, "count");
  result.add("sim.events_per_s", 0.0, "1/s");
  result.add("gateway.replies_per_request", 0.0, "count");
  result.add("gateway.delta_us", 0.0, "us");
  result.add("obs.trace_overhead", 1.0 - ratio(traced_rps, untraced_rps), "ratio");

  ReplayShape replay{shape.replicas, shape.window, {}, {}};
  for (double us : service) replay.service.push_back(Duration{static_cast<std::int64_t>(us)});
  for (double us : queue_wait) replay.queuing.push_back(Duration{static_cast<std::int64_t>(us)});
  replay_core(replay, result);
  replay_wire(replay, result);

  if (!options.spans_out.empty() && !log.write_csv(options.spans_out)) {
    result.fail("cannot write spans to " + options.spans_out);
  }
  result.note("bench spans kept " + std::to_string(log.kept()) +
                            ", dropped past capacity " + std::to_string(log.dropped()));
}

}  // namespace

bool is_threaded_workload(const std::string& name) {
  return name == "udp_small" || name == "inproc_small" || name == "udp_deep";
}

Result run_threaded(const Options& options) {
  Result result;
  const Shape shape = shape_for(options.workload);
  if (options.traced) {
    per_layer(shape, options, result);
  } else {
    end_to_end(shape, options, result);
  }
  return result;
}

}  // namespace perfbench
