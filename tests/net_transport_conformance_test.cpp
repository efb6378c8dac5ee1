// Transport conformance: the behaviour every net::Transport backend must
// share, run against the simulated Lan, the real-socket UdpTransport and
// the threaded runtime's InProcessTransport — delivery, multicast fan-out
// payload integrity, drop accounting for destroyed endpoints, and the
// host-liveness signal. The backend-specific contracts ride along:
// FIFO-per-pair ordering (sim only — UDP makes no ordering promise),
// SpanContext surviving the UDP wire format (the sim hands payloads
// across by pointer, so only the socket backend actually marshals it),
// and the in-process backend's inline delivery and destroy drain.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <algorithm>

#include "net/lan.h"
#include "net/udp_transport.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "proto/messages.h"
#include "runtime/in_process_transport.h"
#include "runtime/replica_endpoint.h"
#include "runtime/threaded_replica.h"
#include "sim/simulator.h"
#include "stats/variates.h"

namespace aqua::net {
namespace {

/// Fast-failure UDP config so give-up tests finish in milliseconds.
UdpTransportConfig fast_udp() {
  UdpTransportConfig cfg;
  cfg.retransmit_initial = msec(3);
  cfg.retransmit_backoff = 1.5;
  cfg.max_attempts = 3;
  cfg.retransmit_tick = msec(1);
  return cfg;
}

LanConfig quiet_lan() {
  LanConfig cfg;
  cfg.jitter_sigma = 0.0;
  return cfg;
}

/// Spin until `pred` holds or ~5s pass (real-time backends only).
bool wait_for(const std::function<bool()>& pred) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// Thread-safe inbox shared by the UDP dispatcher thread and the test.
struct Inbox {
  std::mutex mutex;
  std::vector<std::pair<EndpointId, std::string>> messages;

  ReceiveFn sink() {
    return [this](EndpointId from, const Payload& message) {
      const std::string* body = message.get_if<std::string>();
      std::lock_guard lock(mutex);
      messages.emplace_back(from, body != nullptr ? *body : std::string{"<non-string>"});
    };
  }
  std::size_t size() {
    std::lock_guard lock(mutex);
    return messages.size();
  }
  std::vector<std::pair<EndpointId, std::string>> snapshot() {
    std::lock_guard lock(mutex);
    return messages;
  }
};

// ---------------------------------------------------------------------------
// Shared conformance checks, parameterised on backend + flush strategy.
// `flush(n)` blocks until at least n messages should have arrived: the sim
// runs its event loop to quiescence, UDP polls the inbox.
// ---------------------------------------------------------------------------

void check_unicast_delivery(Transport& transport, Inbox& inbox,
                            const std::function<void(std::size_t)>& flush) {
  const EndpointId a = transport.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  const EndpointId b = transport.create_endpoint(HostId{2}, inbox.sink());
  transport.unicast(a, b, Payload::make(std::string{"ping"}, 64));
  flush(1);
  const auto messages = inbox.snapshot();
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_EQ(messages[0].first, a);
  EXPECT_EQ(messages[0].second, "ping");
  EXPECT_EQ(transport.messages_delivered(), 1u);
  EXPECT_EQ(transport.messages_dropped(), 0u);
}

void check_multicast_integrity(Transport& transport, const std::function<void(std::size_t)>& flush) {
  const EndpointId sender =
      transport.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  constexpr std::size_t kFanout = 4;
  std::vector<Inbox> inboxes(kFanout);
  std::vector<EndpointId> members;
  for (std::size_t i = 0; i < kFanout; ++i) {
    members.push_back(
        transport.create_endpoint(HostId{10 + static_cast<std::uint64_t>(i)}, inboxes[i].sink()));
  }
  // The payload is moved into the LAST delivery (Lan's zero-copy path);
  // every member, including the last, must still see the full body.
  const std::string body(300, 'q');
  transport.multicast(sender, members, Payload::make(body, 512));
  flush(kFanout);
  for (std::size_t i = 0; i < kFanout; ++i) {
    const auto messages = inboxes[i].snapshot();
    ASSERT_EQ(messages.size(), 1u) << "member " << i;
    EXPECT_EQ(messages[0].second, body) << "member " << i;
    EXPECT_EQ(messages[0].first, sender);
  }
  EXPECT_EQ(transport.messages_sent(), kFanout);
  EXPECT_EQ(transport.messages_delivered(), kFanout);
}

void check_destroyed_endpoint_drops(Transport& transport,
                                    const std::function<void(std::size_t)>& flush) {
  const EndpointId a = transport.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  Inbox inbox;
  const EndpointId b = transport.create_endpoint(HostId{2}, inbox.sink());
  transport.destroy_endpoint(b);
  EXPECT_FALSE(transport.endpoint_exists(b));
  transport.unicast(a, b, Payload::make(std::string{"into the void"}, 64));
  flush(0);
  EXPECT_GE(transport.messages_dropped(), 1u);
  EXPECT_EQ(inbox.size(), 0u);
}

/// A chunked request/reply exchange where the replica side answers from
/// inside its own ReceiveFn; `flush(n)` waits for n replies.
void check_chunked_round_trip(Transport& transport, const std::function<void(std::size_t)>& flush,
                              std::mutex& mutex, std::vector<proto::Reply>& replies) {
  const EndpointId client = transport.create_endpoint(HostId{1}, [&](EndpointId, const Payload& m) {
    if (const auto* reply = m.get_if<proto::Reply>()) {
      std::lock_guard lock(mutex);
      replies.push_back(*reply);
    }
  });
  EndpointId replica{};
  replica = transport.create_endpoint(HostId{2}, [&](EndpointId from, const Payload& m) {
    const auto* request = m.get_if<proto::Request>();
    ASSERT_NE(request, nullptr);
    EXPECT_EQ(request->code_k, 2u);
    proto::Reply reply;
    reply.request = request->id;
    reply.replica = ReplicaId{2};
    reply.method = request->method;
    reply.chunk = request->chunk;
    reply.code_id = request->code_id;
    transport.unicast(replica, from, Payload::make(reply, proto::kReplyBytes));
  });

  for (std::uint32_t chunk = 0; chunk < 3; ++chunk) {
    proto::Request request;
    request.id = RequestId{500};
    request.client = ClientId{1};
    request.method = "invoke";
    request.chunk = chunk;
    request.code_k = 2;
    request.code_id = 77;
    transport.unicast(client, replica, Payload::make(request, proto::kRequestBytes));
  }
  flush(3);

  std::lock_guard lock(mutex);
  ASSERT_EQ(replies.size(), 3u);
  std::vector<std::uint32_t> chunks;
  for (const proto::Reply& reply : replies) {
    EXPECT_EQ(reply.code_id, 77u);
    chunks.push_back(reply.chunk);
  }
  std::sort(chunks.begin(), chunks.end());
  EXPECT_EQ(chunks, (std::vector<std::uint32_t>{0, 1, 2}));
}

// ---------------------------------------------------------------------------
// Simulated Lan backend
// ---------------------------------------------------------------------------

class SimConformance : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  std::function<void(std::size_t)> flush() {
    return [this](std::size_t) { sim_.run(); };
  }
};

TEST_F(SimConformance, UnicastDelivery) {
  Lan lan{sim_, Rng{1}, quiet_lan()};
  Inbox inbox;
  check_unicast_delivery(lan, inbox, flush());
}

TEST_F(SimConformance, MulticastFanoutPreservesPayload) {
  Lan lan{sim_, Rng{1}, quiet_lan()};
  check_multicast_integrity(lan, flush());
}

TEST_F(SimConformance, DestroyedEndpointIsACountedDrop) {
  Lan lan{sim_, Rng{1}, quiet_lan()};
  check_destroyed_endpoint_drops(lan, flush());
}

TEST_F(SimConformance, DeadHostDropsTrafficAndNotifies) {
  Lan lan{sim_, Rng{1}, quiet_lan()};
  const EndpointId a = lan.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  Inbox inbox;
  const EndpointId b = lan.create_endpoint(HostId{2}, inbox.sink());
  std::vector<std::pair<HostId, bool>> transitions;
  lan.subscribe_host_state(
      [&](HostId host, bool alive) { transitions.emplace_back(host, alive); });

  lan.set_host_alive(HostId{2}, false);
  EXPECT_FALSE(lan.host_alive(HostId{2}));
  lan.unicast(a, b, Payload::make(std::string{"lost"}, 64));
  sim_.run();
  EXPECT_EQ(inbox.size(), 0u);
  EXPECT_GE(lan.messages_dropped(), 1u);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0], (std::pair<HostId, bool>{HostId{2}, false}));
}

TEST_F(SimConformance, FifoPerPairNeverReorders) {
  LanConfig cfg;
  cfg.jitter_sigma = 0.9;  // heavy jitter: raw delays would reorder
  cfg.fifo_per_pair = true;
  Lan lan{sim_, Rng{7}, cfg};
  const EndpointId a = lan.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  Inbox inbox;
  const EndpointId b = lan.create_endpoint(HostId{2}, inbox.sink());
  constexpr int kCount = 32;
  for (int i = 0; i < kCount; ++i) {
    lan.unicast(a, b, Payload::make(std::to_string(i), 64));
  }
  sim_.run();
  const auto messages = inbox.snapshot();
  ASSERT_EQ(messages.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(messages[static_cast<std::size_t>(i)].second, std::to_string(i));
}

TEST_F(SimConformance, ChunkedRequestReplyRoundTrip) {
  // Coded dispatch sends n distinct chunk-requests and matches replies by
  // (chunk, code_id); a transport must carry both fields intact.
  Lan lan{sim_, Rng{1}, quiet_lan()};
  std::mutex mutex;
  std::vector<proto::Reply> replies;
  check_chunked_round_trip(lan, flush(), mutex, replies);
}

// ---------------------------------------------------------------------------
// UDP socket backend
// ---------------------------------------------------------------------------

class UdpConformance : public ::testing::Test {
 protected:
  std::function<void(std::size_t)> flush(Inbox& inbox) {
    return [&inbox](std::size_t at_least) {
      if (at_least == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return;
      }
      ASSERT_TRUE(wait_for([&] { return inbox.size() >= at_least; }));
    };
  }
};

TEST_F(UdpConformance, UnicastDelivery) {
  UdpTransport udp{fast_udp()};
  Inbox inbox;
  check_unicast_delivery(udp, inbox, flush(inbox));
}

TEST_F(UdpConformance, MulticastFanoutPreservesPayload) {
  UdpTransport udp{fast_udp()};
  // Flush by total delivered count: each member has its own inbox.
  check_multicast_integrity(udp, [&](std::size_t at_least) {
    ASSERT_TRUE(wait_for([&] { return udp.messages_delivered() >= at_least; }));
  });
}

TEST_F(UdpConformance, DestroyedEndpointIsACountedDrop) {
  UdpTransport udp{fast_udp()};
  check_destroyed_endpoint_drops(udp, [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
}

TEST_F(UdpConformance, SilentPeerIsReportedDeadAfterRetransmitBudget) {
  UdpTransport udp{fast_udp()};
  const EndpointId a = udp.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});

  // Bind-then-destroy reserves a port with no listener behind it: sends
  // reach the kernel but nothing ever acks.
  const EndpointId ghost = udp.create_endpoint(HostId{99}, [](EndpointId, const Payload&) {});
  const std::uint16_t dead_port = udp.endpoint_port(ghost);
  udp.destroy_endpoint(ghost);
  const EndpointId peer = udp.register_peer("127.0.0.1", dead_port);
  const HostId peer_host = udp.endpoint_host(peer);
  EXPECT_TRUE(udp.host_alive(peer_host));

  std::mutex mutex;
  std::vector<std::pair<HostId, bool>> transitions;
  udp.subscribe_host_state([&](HostId host, bool alive) {
    std::lock_guard lock(mutex);
    transitions.emplace_back(host, alive);
  });

  udp.unicast(a, peer, Payload::make(std::string{"anyone there?"}, 64));
  ASSERT_TRUE(wait_for([&] { return !udp.host_alive(peer_host); }));
  EXPECT_GE(udp.messages_dropped(), 1u);
  EXPECT_GE(udp.messages_retransmitted(), 1u);
  std::lock_guard lock(mutex);
  ASSERT_FALSE(transitions.empty());
  EXPECT_EQ(transitions.back(), (std::pair<HostId, bool>{peer_host, false}));
}

TEST_F(UdpConformance, SpanContextSurvivesTheWire) {
  UdpTransport udp{fast_udp()};
  const EndpointId a = udp.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  std::mutex mutex;
  std::vector<obs::SpanContext> spans;
  const EndpointId b = udp.create_endpoint(HostId{2}, [&](EndpointId, const Payload& message) {
    std::lock_guard lock(mutex);
    spans.push_back(message.span());
  });

  Payload payload = Payload::make(std::string{"traced"}, 64);
  obs::SpanContext ctx;
  ctx.trace_id = 0xABCDEF0123456789ULL;
  ctx.parent_span_id = 42;
  ctx.leg = obs::SpanKind::kRequestLeg;
  ctx.replica = ReplicaId{5};
  payload.set_span(ctx);
  udp.unicast(a, b, std::move(payload));

  ASSERT_TRUE(wait_for([&] {
    std::lock_guard lock(mutex);
    return !spans.empty();
  }));
  std::lock_guard lock(mutex);
  ASSERT_TRUE(spans[0].valid());
  EXPECT_EQ(spans[0].trace_id, ctx.trace_id);
  EXPECT_EQ(spans[0].parent_span_id, ctx.parent_span_id);
  EXPECT_EQ(spans[0].leg, ctx.leg);
  EXPECT_EQ(spans[0].replica, ctx.replica);
}

TEST_F(UdpConformance, ChunkedRequestReplySurvivesTheWire) {
  // Unlike the sim (pointer handoff), UDP marshals through the v2 wire
  // format — this is the end-to-end check that chunk index, code k, and
  // the generation tag survive real datagrams in both directions.
  UdpTransport udp{fast_udp()};
  std::mutex mutex;
  std::vector<proto::Request> seen_requests;
  std::vector<proto::Reply> seen_replies;
  EndpointId requester_seen{};
  const EndpointId client = udp.create_endpoint(HostId{1}, [&](EndpointId, const Payload& m) {
    if (const auto* reply = m.get_if<proto::Reply>()) {
      std::lock_guard lock(mutex);
      seen_replies.push_back(*reply);
    }
  });
  const EndpointId replica = udp.create_endpoint(HostId{2}, [&](EndpointId from, const Payload& m) {
    if (const auto* request = m.get_if<proto::Request>()) {
      std::lock_guard lock(mutex);
      seen_requests.push_back(*request);
      requester_seen = from;
    }
  });

  for (std::uint32_t chunk = 0; chunk < 3; ++chunk) {
    proto::Request request;
    request.id = RequestId{501};
    request.client = ClientId{1};
    request.method = "invoke";
    request.chunk = chunk;
    request.code_k = 2;
    request.code_id = 0xC0DE1DULL;
    udp.unicast(client, replica, Payload::make(request, proto::kRequestBytes));
  }
  ASSERT_TRUE(wait_for([&] {
    std::lock_guard lock(mutex);
    return seen_requests.size() >= 3;
  }));

  // Echo each chunk back from the main thread (replica sinks never send
  // from inside the dispatcher callback).
  std::vector<proto::Request> requests;
  {
    std::lock_guard lock(mutex);
    requests = seen_requests;
    EXPECT_EQ(requester_seen, client);
  }
  for (const proto::Request& request : requests) {
    EXPECT_EQ(request.code_k, 2u);
    proto::Reply reply;
    reply.request = request.id;
    reply.replica = ReplicaId{2};
    reply.method = request.method;
    reply.chunk = request.chunk;
    reply.code_id = request.code_id;
    udp.unicast(replica, client, Payload::make(reply, proto::kReplyBytes));
  }
  ASSERT_TRUE(wait_for([&] {
    std::lock_guard lock(mutex);
    return seen_replies.size() >= 3;
  }));

  std::lock_guard lock(mutex);
  std::vector<std::uint32_t> chunks;
  for (const proto::Reply& reply : seen_replies) {
    EXPECT_EQ(reply.code_id, 0xC0DE1DULL);
    chunks.push_back(reply.chunk);
  }
  std::sort(chunks.begin(), chunks.end());
  EXPECT_EQ(chunks, (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST_F(UdpConformance, InboxOverflowIsACountedQueueDrop) {
  UdpTransportConfig cfg = fast_udp();
  cfg.reliable = false;  // no retransmits: each overflow is a clean drop
  cfg.receive_queue_capacity = 2;
  UdpTransport udp{cfg};
  const EndpointId a = udp.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});

  // Block the dispatcher inside the first callback so the inbox (cap 2)
  // must overflow while we keep sending.
  std::mutex gate;
  gate.lock();
  std::atomic<int> received{0};
  const EndpointId b = udp.create_endpoint(HostId{2}, [&](EndpointId, const Payload&) {
    if (received.fetch_add(1) == 0) {
      gate.lock();  // parked until the test releases it
      gate.unlock();
    }
  });
  constexpr int kSends = 64;
  for (int i = 0; i < kSends; ++i) {
    udp.unicast(a, b, Payload::make(std::to_string(i), 64));
  }
  // The dispatcher is parked inside message #1, so the bounded inbox
  // must spill before we let it drain.
  ASSERT_TRUE(wait_for([&] { return udp.messages_queue_dropped() >= 1; }));
  gate.unlock();
  ASSERT_TRUE(wait_for([&] {
    return udp.messages_delivered() + udp.messages_queue_dropped() >=
           static_cast<std::uint64_t>(kSends);
  }));
  EXPECT_GE(udp.messages_queue_dropped(), 1u);
  EXPECT_EQ(udp.messages_dropped(), udp.messages_queue_dropped());
}

// ---------------------------------------------------------------------------
// In-process backend (the threaded runtime's InProcessTransport)
// ---------------------------------------------------------------------------

runtime::NetDelayModel no_delay() {
  return {.base = Duration::zero(), .jitter_max = Duration::zero(), .modulation = nullptr};
}

/// Zero delay delivers inline, so every check's flush is a no-op.
void no_flush(std::size_t) {}

TEST(InProcConformance, UnicastDelivery) {
  runtime::InProcessTransport transport{no_delay()};
  Inbox inbox;
  check_unicast_delivery(transport, inbox, no_flush);
}

TEST(InProcConformance, MulticastFanoutPreservesPayload) {
  runtime::InProcessTransport transport{no_delay()};
  check_multicast_integrity(transport, no_flush);
}

TEST(InProcConformance, DestroyedEndpointIsACountedDrop) {
  runtime::InProcessTransport transport{no_delay()};
  check_destroyed_endpoint_drops(transport, no_flush);
}

TEST(InProcConformance, ChunkedRequestReplyRoundTrip) {
  // The replica side replies from inside its ReceiveFn: at zero delay the
  // reply is delivered inline, nested in the request's delivery.
  runtime::InProcessTransport transport{no_delay()};
  std::mutex mutex;
  std::vector<proto::Reply> replies;
  check_chunked_round_trip(transport, no_flush, mutex, replies);
}

TEST(InProcConformance, SpanContextIsCarried) {
  runtime::InProcessTransport transport{no_delay()};
  const EndpointId a = transport.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  std::vector<obs::SpanContext> spans;
  const EndpointId b = transport.create_endpoint(
      HostId{2}, [&](EndpointId, const Payload& message) { spans.push_back(message.span()); });
  Payload payload = Payload::make(std::string{"traced"}, 64);
  const obs::SpanContext ctx{.trace_id = 0xABCDEF0123456789ULL,
                             .parent_span_id = 42,
                             .leg = obs::SpanKind::kRequestLeg,
                             .replica = ReplicaId{5}};
  payload.set_span(ctx);
  transport.unicast(a, b, std::move(payload));
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].trace_id, ctx.trace_id);
  EXPECT_EQ(spans[0].parent_span_id, ctx.parent_span_id);
  EXPECT_EQ(spans[0].leg, ctx.leg);
  EXPECT_EQ(spans[0].replica, ctx.replica);
}

TEST(InProcConformance, ZeroDelayRunsTheReceiverOnTheSendersThread) {
  runtime::InProcessTransport transport{no_delay()};
  const EndpointId a = transport.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  std::thread::id receiver_thread;
  const EndpointId b = transport.create_endpoint(
      HostId{2}, [&](EndpointId, const Payload&) { receiver_thread = std::this_thread::get_id(); });
  transport.unicast(a, b, Payload::make(std::string{"inline"}, 64));
  EXPECT_EQ(receiver_thread, std::this_thread::get_id());  // before unicast returned
}

TEST(InProcConformance, PositiveDelayIsDeliveredFromTheExecutorAfterTheDelay) {
  runtime::InProcessTransport transport{
      {.base = msec(5), .jitter_max = usec(500), .modulation = nullptr}};
  const EndpointId a = transport.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  const std::thread::id sender = std::this_thread::get_id();
  std::atomic<int> on_sender{0};
  Inbox inbox;
  const EndpointId b = transport.create_endpoint(
      HostId{2}, [&, sink = inbox.sink()](EndpointId from, const Payload& message) {
        if (std::this_thread::get_id() == sender) on_sender.fetch_add(1);
        sink(from, message);
      });
  const auto start = std::chrono::steady_clock::now();
  transport.unicast(a, b, Payload::make(std::string{"later"}, 64));
  ASSERT_TRUE(wait_for([&] { return inbox.size() == 1; }));
  EXPECT_GE(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(5));
  EXPECT_EQ(on_sender.load(), 0);
}

TEST(InProcConformance, ModulationHookRetunesTheDelay) {
  // The scenario runner's LAN-spike/delay-window hook: an extra delay
  // moves a zero-delay transport off the inline path.
  auto modulation = std::make_shared<stats::LoadModulation>();
  runtime::InProcessTransport transport{
      {.base = Duration::zero(), .jitter_max = Duration::zero(), .modulation = modulation}};
  const EndpointId a = transport.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  Inbox inbox;
  const EndpointId b = transport.create_endpoint(HostId{2}, inbox.sink());
  transport.unicast(a, b, Payload::make(std::string{"now"}, 64));
  EXPECT_EQ(inbox.size(), 1u);
  modulation->set_extra(msec(50));
  transport.unicast(a, b, Payload::make(std::string{"later"}, 64));
  EXPECT_EQ(inbox.size(), 1u);
  ASSERT_TRUE(wait_for([&] { return inbox.size() == 2; }));
}

TEST(InProcConformance, SentEqualsDeliveredPlusDropped) {
  // Every way a message can end: delivered inline, delivered late, sent
  // to a destroyed endpoint, sent from one, or still pending when the
  // transport dies. The hub mirrors the totals under the lan.* names.
  obs::Telemetry telemetry;
  {
    runtime::InProcessTransport transport{
        {.base = msec(1), .jitter_max = msec(1), .modulation = nullptr}};
    transport.set_telemetry(&telemetry);
    const EndpointId a = transport.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
    const EndpointId b = transport.create_endpoint(HostId{2}, [](EndpointId, const Payload&) {});
    const EndpointId gone = transport.create_endpoint(HostId{3}, [](EndpointId, const Payload&) {});
    const std::vector<EndpointId> members{a, b, gone};
    transport.multicast(a, members, Payload::make(std::string{"wave 1"}, 64));
    ASSERT_TRUE(wait_for([&] { return transport.messages_delivered() == 3; }));
    transport.destroy_endpoint(gone);
    transport.multicast(a, members, Payload::make(std::string{"wave 2"}, 64));
    transport.unicast(gone, b, Payload::make(std::string{"from the dead"}, 64));
    ASSERT_TRUE(wait_for([&] {
      return transport.messages_delivered() + transport.messages_dropped() == 7;
    }));
    transport.multicast(a, members, Payload::make(std::string{"never arrives"}, 64));
    EXPECT_EQ(transport.messages_sent(), 10u);
  }  // destroyed with wave 3 (1-2 ms out) still pending: counted as drops
  const auto counter = [&](const char* name) { return telemetry.metrics().counter(name).value(); };
  EXPECT_EQ(counter("lan.sent"), 10u);
  EXPECT_EQ(counter("lan.sent"), counter("lan.delivered") + counter("lan.dropped"));
  EXPECT_GE(counter("lan.dropped"), 2u);
}

TEST(InProcHammer, DestroyEndpointRacesReplicaWorkersDeliveringInline) {
  // Replica workers deliver their replies inline into a client endpoint
  // while the test destroys it. Once destroy_endpoint returns, no
  // delivery may be running or start: the sink state is freed at once
  // (ASan/TSan flag a straggler) and a flag catches any late call.
  constexpr std::size_t kReplicas = 3;
  for (int round = 0; round < 20; ++round) {
    runtime::InProcessTransport transport{no_delay()};
    std::vector<std::unique_ptr<runtime::ThreadedReplica>> replicas;
    std::vector<std::unique_ptr<runtime::ReplicaEndpoint>> endpoints;
    std::vector<EndpointId> members;
    for (std::size_t i = 0; i < kReplicas; ++i) {
      replicas.push_back(std::make_unique<runtime::ThreadedReplica>(
          ReplicaId{i + 1}, stats::make_constant(Duration::zero()), Rng{i + 1}));
      endpoints.push_back(std::make_unique<runtime::ReplicaEndpoint>(transport, *replicas.back(),
                                                                     HostId{i + 1}));
      members.push_back(endpoints.back()->endpoint());
    }
    struct Sink {
      std::uint64_t replies = 0;
      std::mutex mutex;
    };
    auto sink = std::make_unique<Sink>();
    std::atomic<bool> destroyed{false};
    std::atomic<std::uint64_t> late{0};
    std::atomic<std::uint64_t> answered{0};
    const EndpointId client = transport.create_endpoint(
        HostId{100}, [raw = sink.get(), &destroyed, &late, &answered](EndpointId,
                                                                      const Payload& message) {
          if (destroyed.load()) late.fetch_add(1);
          if (message.get_if<proto::Reply>() == nullptr) return;
          // Stay inside the delivery a moment, so destroy_endpoint
          // usually finds one in progress and has to wait it out.
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          std::lock_guard lock(raw->mutex);  // freed memory if this ran late
          ++raw->replies;
          if (destroyed.load()) late.fetch_add(1);
          answered.fetch_add(1);
        });

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> requested{0};
    std::thread pump([&] {
      for (std::uint64_t n = 1; !stop.load(); ++n) {
        // Bounded backlog: at most a few waves outstanding per replica.
        while (!stop.load() && requested.load() > answered.load() + 4 * kReplicas) {
          std::this_thread::yield();
        }
        proto::Request request{RequestId{n}, ClientId{1}, "invoke", 0};
        transport.multicast(client, members, Payload::make(request, proto::kRequestBytes));
        requested.fetch_add(kReplicas);
      }
    });
    ASSERT_TRUE(wait_for([&] { return answered.load() >= 100; }));
    // A replica endpoint goes mid-traffic too: the pump delivers into it.
    endpoints[0]->shutdown();
    transport.destroy_endpoint(client);
    destroyed.store(true);
    sink.reset();
    stop.store(true);
    pump.join();
    endpoints.clear();  // severs the reply path of anything still queued
    replicas.clear();
    EXPECT_EQ(late.load(), 0u) << "round " << round;
    EXPECT_EQ(transport.messages_sent(),
              transport.messages_delivered() + transport.messages_dropped());
  }
}

}  // namespace
}  // namespace aqua::net
