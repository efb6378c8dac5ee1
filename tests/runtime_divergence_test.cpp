// The threaded client must follow the same request lifecycle (§5.4) as
// the simulated timing fault handler. Each test scripts the replicas
// through a ScriptedTransport and checks the paper's definition directly:
//  - T_i = t4 − t1 − t_q − t_s excludes the selection time (t0 → t1);
//  - every harvested reply records t_d, also after invoke() returned;
//  - a negative raw t_d is counted, not clamped silently;
//  - the hedge timer runs from t1;
//  - cancels reach only the members still awaited.
// A hostile Reply over real UDP must be dropped and counted, never abort.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "net/udp_transport.h"
#include "obs/telemetry.h"
#include "runtime/threaded_client.h"
#include "scripted_transport.h"

namespace aqua::runtime {
namespace {

using testing::ScriptedTransport;

/// A ThreadedClient over a ScriptedTransport, with `n` scripted replicas.
struct Rig {
  obs::Telemetry telemetry;
  ScriptedTransport transport;
  std::vector<EndpointId> peers;  // peers[i] plays ReplicaId{i + 1}
  std::unique_ptr<ThreadedClient> client;

  Rig(std::size_t n, core::QosSpec qos, ThreadedClientConfig config = {}) {
    transport.set_telemetry(&telemetry);
    config.transport = &transport;
    config.telemetry = &telemetry;
    config.host = HostId{1'000};
    config.id = ClientId{1};
    client = std::make_unique<ThreadedClient>(std::vector<ThreadedReplica*>{}, qos, Rng{7}, config);
    for (std::size_t i = 0; i < n; ++i) {
      peers.push_back(transport.add_peer(HostId{100 + i}));
      client->add_peer_replica(ReplicaId{i + 1}, peers.back());
    }
  }

  ~Rig() { client->shutdown(); }

  [[nodiscard]] ReplicaId replica_at(EndpointId endpoint) const {
    const auto it = std::find(peers.begin(), peers.end(), endpoint);
    return ReplicaId{static_cast<std::uint64_t>(it - peers.begin()) + 1};
  }

  /// `l` distinct perf samples per replica, so the first selection has
  /// to convolve every window: milliseconds between t0 and t1.
  void fill_windows(std::size_t l) {
    for (std::size_t r = 0; r < peers.size(); ++r) {
      for (std::size_t k = 0; k < l; ++k) {
        proto::PerfUpdate update;
        update.replica = ReplicaId{r + 1};
        const auto ki = static_cast<std::int64_t>(k);
        const auto ri = static_cast<std::int64_t>(r);
        update.perf = {usec(500 + 13 * ki + 7 * ri), usec(3 * ki), 0, k + 1};
        transport.deliver(peers[r], net::Payload::make(update, proto::kPerfUpdateBytes));
      }
    }
  }

  void reply(const ScriptedTransport::Sent& sent, Duration service = Duration::zero()) {
    const auto* request = sent.message.get_if<proto::Request>();
    ASSERT_NE(request, nullptr);
    proto::Reply reply;
    reply.request = request->id;
    reply.replica = replica_at(sent.to);
    reply.method = request->method;
    reply.result = request->argument;
    reply.perf = {service, Duration::zero(), 0, ++seq};
    reply.chunk = request->chunk;
    reply.code_id = request->code_id;
    transport.deliver(sent.to, net::Payload::make(reply, proto::kReplyBytes));
  }

  /// Run one invoke() on a worker thread while `on_sent` plays the
  /// replicas for every message the client sends; keeps serving until
  /// invoke() returned and the client has been quiet for `quiet`.
  ThreadedClient::Outcome serve(const std::function<void(const ScriptedTransport::Sent&)>& on_sent,
                                std::chrono::milliseconds quiet = std::chrono::milliseconds(30)) {
    auto outcome = std::async(std::launch::async, [this] { return client->invoke(42); });
    const auto limit = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < limit) {
      if (auto sent = transport.next(quiet)) {
        on_sent(*sent);
      } else if (outcome.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        break;
      }
    }
    return outcome.get();
  }

  std::uint64_t counter(const std::string& name) {
    return telemetry.metrics().counter(name).value();
  }

  std::uint64_t seq = 1'000;
};

TEST(RuntimeDivergenceTest, GatewayDelayExcludesSelectionTime) {
  ThreadedClientConfig config;
  config.repository.window_size = 64;
  Rig rig{8, core::QosSpec{msec(500), 0.9}, config};
  rig.fill_windows(64);

  const auto outcome = rig.serve([&](const ScriptedTransport::Sent& sent) { rig.reply(sent); });
  ASSERT_TRUE(outcome.answered);
  const auto traces = rig.telemetry.request_traces();
  ASSERT_EQ(traces.size(), 1u);
  const obs::RequestTrace& trace = traces[0];
  ASSERT_TRUE(trace.t4.has_value());
  // Selection over eight 64-sample windows takes real time: t1 > t0.
  EXPECT_GT(trace.t1, trace.t0);
  // t_d = t4 - t1 - t_q - t_s with t_q = t_s = 0: measured from t1, so
  // the selection time F(t - delta) already charges is not counted twice.
  EXPECT_EQ(trace.gateway_delay, *trace.t4 - trace.t1);
}

TEST(RuntimeDivergenceTest, EveryReplyRecordsGatewayDelayEvenAfterInvokeReturns) {
  Rig rig{3, core::QosSpec{msec(200), 0.5}};
  std::vector<ScriptedTransport::Sent> held;
  // Cold start: the request goes to all three. Replica 1 answers at once;
  // the other two answer only after invoke() has returned.
  const auto outcome = rig.serve([&](const ScriptedTransport::Sent& sent) {
    if (rig.replica_at(sent.to) == ReplicaId{1}) {
      rig.reply(sent);
    } else {
      held.push_back(sent);
    }
  });
  ASSERT_TRUE(outcome.answered);
  EXPECT_EQ(outcome.redundancy, 3u);
  ASSERT_EQ(held.size(), 2u);
  for (const auto& sent : held) rig.reply(sent);
  EXPECT_EQ(rig.counter("repository.gateway_delays"), 3u);
  EXPECT_EQ(rig.counter("repository.perf_samples"), 3u);
}

TEST(RuntimeDivergenceTest, NegativeRawGatewayDelayIsCounted) {
  Rig rig{1, core::QosSpec{msec(200), 0.5}};
  // The replica claims ten seconds of service for a round trip that took
  // microseconds: t4 - t1 - t_s < 0, a clock-basis mismatch to surface.
  const auto outcome =
      rig.serve([&](const ScriptedTransport::Sent& sent) { rig.reply(sent, sec(10)); });
  ASSERT_TRUE(outcome.answered);
  EXPECT_EQ(rig.counter("threaded.td_clamped"), 1u);
}

TEST(RuntimeDivergenceTest, HedgeTimerRunsFromTransmission) {
  ThreadedClientConfig config;
  config.repository.window_size = 64;
  config.dispatch.mode = core::DispatchMode::kHedged;
  // Pin the hedge delay to a quarter of the deadline: 100 ms.
  config.dispatch.min_hedge_fraction = 0.25;
  config.dispatch.max_hedge_fraction = 0.25;
  Rig rig{8, core::QosSpec{msec(400), 0.5}, config};
  rig.fill_windows(64);

  std::vector<ScriptedTransport::Sent> requests;
  const auto outcome = rig.serve([&](const ScriptedTransport::Sent& sent) {
    requests.push_back(sent);
    // The primary stays silent; the backup answers as soon as it is sent.
    if (requests.size() > 1) rig.reply(sent);
  });
  ASSERT_TRUE(outcome.answered);
  EXPECT_TRUE(outcome.hedged);
  EXPECT_TRUE(outcome.hedge_fired);
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_NE(requests[0].to, requests[1].to);
  // The backup leaves no earlier than t1 + hedge delay: the quantile the
  // delay came from predicts the primary's response from transmission.
  const auto traces = rig.telemetry.request_traces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_GT(traces[0].t1, traces[0].t0);
  EXPECT_GE(requests[0].at, traces[0].t1);
  EXPECT_GE(requests[1].at - traces[0].t1, msec(100));
}

TEST(RuntimeDivergenceTest, CancelsReachOnlyMembersStillAwaited) {
  ThreadedClientConfig config;
  config.dispatch.completion = core::CompletionSpec::quorum(2);
  config.dispatch.cancel_on_first_reply = true;
  // Two protected members plus one candidate: K is all three replicas on
  // a warm repository (cold starts keep the first-of-n predicate).
  config.selection.crash_tolerance = 2;
  Rig rig{3, core::QosSpec{msec(200), 0.5}, config};
  rig.fill_windows(5);

  std::vector<ReplicaId> cancelled;
  const auto outcome = rig.serve([&](const ScriptedTransport::Sent& sent) {
    const ReplicaId replica = rig.replica_at(sent.to);
    if (sent.message.get_if<proto::Cancel>() != nullptr) {
      cancelled.push_back(replica);
    } else if (replica != ReplicaId{3}) {
      rig.reply(sent);  // replicas 1 and 2 complete the quorum
    }
  });
  ASSERT_TRUE(outcome.answered);
  EXPECT_EQ(outcome.cancels_sent, 1u);
  // Replicas 1 and 2 already answered: only 3 still owes a copy.
  EXPECT_EQ(cancelled, std::vector<ReplicaId>{ReplicaId{3}});
}

TEST(RuntimeDivergenceTest, HostileReplyOverUdpIsDroppedAndCounted) {
  net::UdpTransport udp;
  obs::Telemetry telemetry;
  // A replica that answers every request with a negative service time.
  EndpointId hostile{};
  hostile = udp.create_endpoint(HostId{500}, [&](EndpointId from, const net::Payload& message) {
    const auto* request = message.get_if<proto::Request>();
    if (request == nullptr) return;
    proto::Reply reply;
    reply.request = request->id;
    reply.replica = ReplicaId{1};
    reply.result = request->argument;
    reply.perf.service_time = usec(-5);
    udp.unicast(hostile, from, net::Payload::make(reply, proto::kReplyBytes));
  });

  ThreadedClientConfig config;
  config.transport = &udp;
  config.telemetry = &telemetry;
  config.host = HostId{2'000};
  ThreadedClient client{{}, core::QosSpec{msec(20), 0.5}, Rng{3}, config};
  client.add_peer_replica(ReplicaId{1}, hostile);

  const auto outcome = client.invoke(1);
  EXPECT_FALSE(outcome.answered);
  EXPECT_GE(telemetry.metrics().counter("wire.rejected.negative_service_time").value(), 1u);
  client.shutdown();
  udp.destroy_endpoint(hostile);
}

}  // namespace
}  // namespace aqua::runtime
