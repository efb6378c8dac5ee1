// The threaded runtime over its in-memory transport. At zero net delay
// every hop is delivered inline, so a reply runs the client's intake on
// the replica's worker thread, and a cancel it triggers runs the other
// replicas' intake there too: the re-entrancy this tier pins down. It
// carries the fault label (TSan pass) and runs under ASan as well.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#include "obs/telemetry.h"
#include "runtime/threaded_system.h"
#include "stats/variates.h"

namespace aqua::runtime {
namespace {

NetDelayModel no_delay() {
  return {.base = Duration::zero(), .jitter_max = Duration::zero(), .modulation = nullptr};
}

/// Aborts the process if `body` has not returned within `limit`: a
/// deadlock must fail the test, not hang the suite.
template <typename Body>
void within(std::chrono::seconds limit, Body body) {
  std::atomic<bool> done{false};
  std::thread watchdog([&] {
    const auto until = std::chrono::steady_clock::now() + limit;
    while (!done.load() && std::chrono::steady_clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (!done.load()) {
      std::fprintf(stderr, "deadlock: no progress within %llds\n",
                   static_cast<long long>(limit.count()));
      std::abort();
    }
  });
  body();
  done.store(true);
  watchdog.join();
}

TEST(InProcessRuntimeTest, ReplyCancelPurgeChainRunsInlineWithoutDeadlock) {
  // An infeasible deadline (1 ms against at least 1 ms of service) makes
  // every request go to all three replicas: the primary first, the hedge
  // set at most 0.5 ms later. The slow replica serves one copy for 20 ms
  // while the others queue behind it, so the first fast reply's cancel
  // finds a queued copy there and purges it — inline, on the replying
  // worker's thread.
  ThreadedSystemConfig config;
  config.client.net = no_delay();
  config.client.dispatch.mode = core::DispatchMode::kHedged;
  config.client.dispatch.cancel_on_first_reply = true;
  config.client.give_up_deadline_factor = 1000;  // late answers, never unanswered
  ThreadedSystem system{config};
  system.add_replica(stats::make_constant(msec(1)));
  system.add_replica(stats::make_constant(msec(1)));
  system.add_replica(stats::make_constant(msec(20)));
  system.add_client(core::QosSpec{msec(1), 0.9});
  system.add_client(core::QosSpec{msec(1), 0.9});

  constexpr std::size_t kRequests = 30;
  std::vector<WorkloadStats> stats;
  within(std::chrono::seconds(60), [&] { stats = system.run_workload(kRequests, Duration::zero()); });

  for (const WorkloadStats& s : stats) {
    EXPECT_EQ(s.requests, kRequests);
    EXPECT_EQ(s.answered, kRequests);
  }
  std::uint64_t cancels = 0;
  std::uint64_t hedges = 0;
  for (ThreadedClient* client : system.clients()) {
    cancels += client->cancels_sent();
    hedges += client->hedges_fired();
  }
  std::uint64_t purged = 0;
  for (ThreadedReplica* replica : system.replicas()) purged += replica->purged();
  EXPECT_GT(hedges, 0u);
  EXPECT_GT(cancels, 0u);
  EXPECT_GT(purged, 0u);
  EXPECT_LE(purged, cancels);
}

TEST(InProcessRuntimeTest, TransportCountersBalanceInTheHub) {
  // The in-process transport mirrors lan.sent / lan.delivered /
  // lan.dropped like UdpTransport. Once the system is gone (every
  // in-flight message delivered or discarded), the books balance.
  for (const NetDelayModel& net :
       {no_delay(), NetDelayModel{.base = usec(100), .jitter_max = usec(100), .modulation = {}}}) {
    obs::Telemetry telemetry;
    {
      ThreadedSystemConfig config;
      config.telemetry = &telemetry;
      config.client.net = net;
      config.client.dispatch.cancel_on_first_reply = true;
      ThreadedSystem system{config};
      system.add_replica(stats::make_constant(usec(200)));
      system.add_replica(stats::make_constant(msec(2)));
      system.add_client(core::QosSpec{msec(50), 0.9});
      const auto stats = system.run_workload(20, Duration::zero());
      EXPECT_EQ(stats[0].answered, 20u);
    }
    const auto counter = [&](const char* name) {
      return telemetry.metrics().counter(name).value();
    };
    // At least a request and a reply per invocation.
    EXPECT_GE(counter("lan.sent"), 40u);
    EXPECT_EQ(counter("lan.sent"), counter("lan.delivered") + counter("lan.dropped"));
    EXPECT_EQ(counter("threaded.requests"), 20u);
    EXPECT_EQ(counter("threaded.answered"), 20u);
  }
}

TEST(InProcessRuntimeTest, ReplicaListClientOutlivesNothingItWrapped) {
  // The replica-pointer constructor wraps the replicas in a private
  // transport. The client goes first while the slow replica still holds
  // its copy; that late reply must find a severed path, not a dead
  // client (ASan: no use after free).
  ThreadedReplica fast{ReplicaId{1}, stats::make_constant(msec(1)), Rng{1}};
  ThreadedReplica slow{ReplicaId{2}, stats::make_constant(msec(30)), Rng{2}};
  {
    ThreadedClientConfig config;
    config.net = no_delay();
    ThreadedClient client{{&fast, &slow}, core::QosSpec{msec(100), 0.0}, Rng{3}, config};
    const auto outcome = client.invoke(1);  // cold start: both replicas
    EXPECT_TRUE(outcome.answered);
    EXPECT_EQ(outcome.first_replica, ReplicaId{1});
  }
  // The slow copy finishes after the client is gone.
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (slow.serviced() == 0 && std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(slow.serviced(), 1u);
}

TEST(InProcessRuntimeTest, ClientAndSystemNeedExactlyOneWayToReachReplicas) {
  ThreadedReplica replica{ReplicaId{1}, stats::make_constant(msec(1)), Rng{1}};
  InProcessTransport transport{no_delay()};
  ThreadedClientConfig with_transport;
  with_transport.transport = &transport;
  EXPECT_THROW((ThreadedClient{{}, core::QosSpec{msec(10), 0.5}, Rng{1}, {}}),
               std::invalid_argument);
  EXPECT_THROW((ThreadedClient{{&replica}, core::QosSpec{msec(10), 0.5}, Rng{1}, with_transport}),
               std::invalid_argument);
}

}  // namespace
}  // namespace aqua::runtime
