// One scripted scenario through both runtimes: the simulated timing fault
// handler and the wall-clock ThreadedClient drive the same
// core::RequestLifecycle, so for identical repository contents they must
// make identical decisions. Three scripted replicas answer with fixed perf
// data at well-separated instants; the script covers a plain primary
// reply, a hedge expiry (with a cancel to the silent primary), an eviction
// of the primary that releases the hedge set, and a request after the
// eviction. Per request the two runtimes must agree on |K|, the replicas
// sent a copy, the delivering replica, the cancel targets and the number
// of t_d samples harvested.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <ostream>
#include <vector>

#include "gateway/timing_fault_handler.h"
#include "net/group.h"
#include "net/lan.h"
#include "obs/telemetry.h"
#include "runtime/threaded_client.h"
#include "scripted_transport.h"
#include "sim/simulator.h"

namespace aqua {
namespace {

constexpr std::size_t kReplicas = 3;
constexpr std::size_t kRequests = 4;
constexpr std::uint64_t kWarmSamples = 5;
const Duration kService = msec(1);

enum class Act { kReply, kSilent, kCrash };

/// What replica `replica` (1-based) does with request `request` (1-based).
Act script(std::uint64_t request, std::uint64_t replica) {
  if (replica != 1) return Act::kReply;
  if (request == 2) return Act::kSilent;  // the hedge timer expires
  if (request == 3) return Act::kCrash;   // evicted while the hedge is held
  return Act::kReply;
}

core::QosSpec qos() { return core::QosSpec{msec(200), 0.5}; }

core::DispatchConfig dispatch() {
  core::DispatchConfig config;
  config.mode = core::DispatchMode::kHedged;
  config.cancel_on_first_reply = true;
  // Hedge delay pinned to 100 ms: far beyond a scripted reply, so only
  // the silent primary of request 2 lets it expire.
  config.min_hedge_fraction = 0.5;
  config.max_hedge_fraction = 0.5;
  return config;
}

proto::PerfData perf(std::uint64_t seq) { return {kService, Duration::zero(), 0, seq}; }

struct Observed {
  std::size_t redundancy = 0;
  std::vector<std::uint64_t> sent_to;
  std::uint64_t delivered_by = 0;
  std::vector<std::uint64_t> cancelled;
  std::uint64_t td_samples = 0;

  bool operator==(const Observed&) const = default;
};

std::ostream& operator<<(std::ostream& out, const std::vector<std::uint64_t>& ids) {
  for (std::uint64_t id : ids) out << id << ' ';
  return out;
}

std::ostream& operator<<(std::ostream& out, const Observed& o) {
  return out << "{|K|=" << o.redundancy << " sent=[" << o.sent_to << "] delivered="
             << o.delivered_by << " cancelled=[" << o.cancelled << "] td=" << o.td_samples << '}';
}

void sort_ids(Observed& o) {
  std::sort(o.sent_to.begin(), o.sent_to.end());
  std::sort(o.cancelled.begin(), o.cancelled.end());
}

std::uint64_t gateway_delays(obs::Telemetry& telemetry) {
  return telemetry.metrics().counter("repository.gateway_delays").value();
}

std::vector<Observed> run_simulated() {
  sim::Simulator simulator;
  net::Lan lan{simulator, Rng{11}, net::LanConfig{}};
  net::MulticastGroup group{simulator, lan, GroupId{1}};
  obs::Telemetry telemetry;
  std::vector<Observed> observed(kRequests + 1);  // indexed by request id

  std::vector<EndpointId> endpoints(kReplicas + 1);
  std::vector<std::uint64_t> seq(kReplicas + 1, 0);
  for (std::uint64_t r = 1; r <= kReplicas; ++r) {
    endpoints[r] = lan.create_endpoint(HostId{100 + r}, [&, r](EndpointId from,
                                                               const net::Payload& message) {
      const EndpointId self = endpoints[r];
      if (const auto* subscribe = message.get_if<proto::Subscribe>()) {
        lan.unicast(self, subscribe->reply_to,
                    net::Payload::make(proto::Announce{ReplicaId{r}, self}, proto::kAnnounceBytes));
        if (seq[r] > 0) return;  // warm the window once
        for (std::uint64_t k = 0; k < kWarmSamples; ++k) {
          proto::PerfUpdate update{ReplicaId{r}, core::kDefaultMethod, perf(++seq[r])};
          lan.unicast(self, subscribe->reply_to,
                      net::Payload::make(update, proto::kPerfUpdateBytes));
        }
      } else if (const auto* cancel = message.get_if<proto::Cancel>()) {
        observed[cancel->request.value()].cancelled.push_back(r);
      } else if (const auto* request = message.get_if<proto::Request>()) {
        observed[request->id.value()].sent_to.push_back(r);
        const Act act = script(request->id.value(), r);
        if (act == Act::kCrash) {
          simulator.schedule_after(msec(1), [&, self] { group.leave(self); });
        } else if (act == Act::kReply) {
          proto::Reply reply{request->id, ReplicaId{r}, request->method, request->argument,
                             perf(++seq[r]), request->chunk, request->code_id};
          simulator.schedule_after(msec(5), [&lan, self, from, reply] {
            lan.unicast(self, from, net::Payload::make(reply, proto::kReplyBytes));
          });
        }
      }
    });
    group.join(endpoints[r]);
  }

  gateway::HandlerConfig config;
  config.dispatch = dispatch();
  config.telemetry = &telemetry;
  gateway::TimingFaultHandler handler{simulator, lan,   group, ClientId{1}, HostId{1},
                                      qos(),     Rng{2}, config};
  simulator.run_until(TimePoint{} + sec(1));  // discovery + warm-up

  for (std::uint64_t i = 1; i <= kRequests; ++i) {
    const std::uint64_t td_before = gateway_delays(telemetry);
    const RequestId id =
        handler.invoke(static_cast<std::int64_t>(i), [&](const gateway::ReplyInfo& info) {
          observed[info.request.value()].delivered_by = info.replica.value();
        });
    EXPECT_EQ(id, RequestId{i});
    simulator.run_until(simulator.now() + sec(3));  // past the 10-deadline GC
    observed[i].redundancy = handler.history().at(i - 1).redundancy;
    observed[i].td_samples = gateway_delays(telemetry) - td_before;
    sort_ids(observed[i]);
  }
  observed.erase(observed.begin());
  return observed;
}

std::vector<Observed> run_threaded() {
  obs::Telemetry telemetry;
  testing::ScriptedTransport transport;
  transport.set_telemetry(&telemetry);
  runtime::ThreadedClientConfig config;
  config.dispatch = dispatch();
  config.telemetry = &telemetry;
  config.transport = &transport;
  config.host = HostId{1};
  config.id = ClientId{1};
  runtime::ThreadedClient client{{}, qos(), Rng{2}, config};

  std::vector<EndpointId> endpoints(kReplicas + 1);
  std::vector<std::uint64_t> seq(kReplicas + 1, 0);
  for (std::uint64_t r = 1; r <= kReplicas; ++r) {
    endpoints[r] = transport.add_peer(HostId{100 + r});
    client.add_peer_replica(ReplicaId{r}, endpoints[r]);
    for (std::uint64_t k = 0; k < kWarmSamples; ++k) {
      proto::PerfUpdate update{ReplicaId{r}, core::kDefaultMethod, perf(++seq[r])};
      transport.deliver(endpoints[r], net::Payload::make(update, proto::kPerfUpdateBytes));
    }
  }
  auto replica_of = [&](EndpointId endpoint) {
    return static_cast<std::uint64_t>(
        std::find(endpoints.begin(), endpoints.end(), endpoint) - endpoints.begin());
  };

  std::vector<Observed> observed;
  for (std::uint64_t i = 1; i <= kRequests; ++i) {
    const std::uint64_t td_before = gateway_delays(telemetry);
    Observed o;
    auto outcome = std::async(std::launch::async,
                              [&client, i] { return client.invoke(static_cast<std::int64_t>(i)); });
    const auto limit = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < limit) {
      auto sent = transport.next(std::chrono::milliseconds(100));
      if (!sent) {
        if (outcome.wait_for(std::chrono::seconds(0)) == std::future_status::ready) break;
        continue;
      }
      const std::uint64_t r = replica_of(sent->to);
      if (const auto* cancel = sent->message.get_if<proto::Cancel>()) {
        EXPECT_EQ(cancel->request, RequestId{i});
        o.cancelled.push_back(r);
      } else if (const auto* request = sent->message.get_if<proto::Request>()) {
        EXPECT_EQ(request->id, RequestId{i});
        o.sent_to.push_back(r);
        const Act act = script(i, r);
        if (act == Act::kCrash) {
          transport.kill_host(HostId{100 + r});
        } else if (act == Act::kReply) {
          proto::Reply reply{request->id, ReplicaId{r}, request->method, request->argument,
                             perf(++seq[r]), request->chunk, request->code_id};
          transport.deliver(sent->to, net::Payload::make(reply, proto::kReplyBytes));
        }
      }
    }
    const runtime::ThreadedClient::Outcome result = outcome.get();
    o.redundancy = result.redundancy;
    o.delivered_by = result.answered ? result.first_replica.value() : 0;
    o.td_samples = gateway_delays(telemetry) - td_before;
    sort_ids(o);
    observed.push_back(o);
  }
  client.shutdown();
  return observed;
}

TEST(RuntimeParityTest, SimulatorAndThreadedClientMakeTheSameDecisions) {
  const std::vector<Observed> simulated = run_simulated();
  const std::vector<Observed> threaded = run_threaded();
  ASSERT_EQ(simulated.size(), kRequests);
  ASSERT_EQ(threaded.size(), kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(simulated[i], threaded[i]) << "request " << i + 1;
  }

  // The script exercised what it claims, in the simulator's terms.
  const std::vector<std::uint64_t> none;
  // 1: the primary answers; the held backup is never sent.
  EXPECT_EQ(simulated[0].redundancy, 2u);
  EXPECT_EQ(simulated[0].sent_to, std::vector<std::uint64_t>{1});
  EXPECT_EQ(simulated[0].delivered_by, 1u);
  EXPECT_EQ(simulated[0].cancelled, none);
  // 2: the hedge expires, the backup answers, the silent primary is cancelled.
  EXPECT_EQ(simulated[1].sent_to, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(simulated[1].delivered_by, 2u);
  EXPECT_EQ(simulated[1].cancelled, std::vector<std::uint64_t>{1});
  // 3: the primary is evicted, the hedge set goes out at once.
  EXPECT_EQ(simulated[2].sent_to, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(simulated[2].delivered_by, 2u);
  EXPECT_EQ(simulated[2].cancelled, none);
  // 4: selection no longer sees replica 1.
  EXPECT_EQ(simulated[3].redundancy, 2u);
  EXPECT_EQ(simulated[3].sent_to, std::vector<std::uint64_t>{2});
  for (const Observed& o : simulated) EXPECT_EQ(o.td_samples, 1u);
}

}  // namespace
}  // namespace aqua
