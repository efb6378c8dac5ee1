// core::RequestLifecycle in isolation: no clock, no timers, no sends —
// every instant is an argument and every output a value, so each §5.3–5.4
// rule is checked exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "core/request_lifecycle.h"
#include "obs/telemetry.h"

namespace aqua::core {
namespace {

TimePoint at_ms(std::int64_t ms) { return TimePoint{} + msec(ms); }

class RequestLifecycleTest : public ::testing::Test {
 protected:
  /// Three replicas; 1 and 2 have history, 3 is dataless.
  std::unique_ptr<RequestLifecycle> make(DispatchConfig dispatch = {},
                                         FailureTrackerConfig tracker = {},
                                         obs::Telemetry* telemetry = nullptr) {
    auto lifecycle = std::make_unique<RequestLifecycle>(
        ClientId{1}, RepositoryConfig{}, tracker, SelectionConfig{}, dispatch,
        ResponseTimeModel{ModelConfig{}, nullptr}, telemetry, "test",
        /*keep_history=*/true);
    for (std::uint64_t r = 1; r <= 3; ++r) lifecycle->repository().add_replica(ReplicaId{r});
    for (std::uint64_t r = 1; r <= 2; ++r) {
      lifecycle->repository().record_perf(ReplicaId{r}, PerfSample{msec(2), msec(1), 0, 1},
                                          at_ms(0));
    }
    return lifecycle;
  }

  /// Open request `id` at t0 = 0 and transmit the selection {1, 2} at t1.
  PlannedDispatch start(RequestLifecycle& lifecycle, RequestId id, TimePoint t1,
                        std::vector<ReplicaId> selected = {ReplicaId{1}, ReplicaId{2}}) {
    lifecycle.open(id, at_ms(0), QosSpec{msec(100), 0.9}, kDefaultMethod, 5);
    SelectionResult selection;
    selection.selected = std::move(selected);
    selection.feasible = true;
    const auto observations = lifecycle.repository().observe_all();
    PlannedDispatch plan = lifecycle.plan(id, selection, observations, false, at_ms(0));
    EXPECT_TRUE(lifecycle.transmit(id, plan, t1, at_ms(0)).has_value());
    return plan;
  }

  static proto::Reply reply(RequestId id, std::uint64_t replica, Duration service,
                            Duration queuing = Duration::zero()) {
    proto::Reply r;
    r.request = id;
    r.replica = ReplicaId{replica};
    r.result = 5;
    r.perf = {service, queuing, 0, 0};
    return r;
  }
};

TEST_F(RequestLifecycleTest, PlanAddsDatalessRideAlongAndChargesInFlight) {
  auto lifecycle = make();
  const PlannedDispatch plan = start(*lifecycle, RequestId{1}, at_ms(1));
  const std::vector<ReplicaId> k{ReplicaId{1}, ReplicaId{2}, ReplicaId{3}};
  EXPECT_EQ(plan.selected, k);
  EXPECT_EQ(plan.primary, k);
  EXPECT_EQ(lifecycle->find(RequestId{1})->awaiting, k);
  for (ReplicaId replica : k) EXPECT_EQ(lifecycle->outstanding(replica), 1u);
  const RequestRecord& record = lifecycle->history().at(0);
  EXPECT_EQ(record.redundancy, 3u);
  EXPECT_EQ(record.transmitted_at, at_ms(1));
}

TEST_F(RequestLifecycleTest, GatewayDelayIsMeasuredFromT1ForEveryReply) {
  auto lifecycle = make();
  start(*lifecycle, RequestId{1}, at_ms(10));
  // Completing reply: 15 - 10 - 1 - 2 = 2 ms.
  const ReplyIntake first =
      lifecycle->on_reply(reply(RequestId{1}, 1, msec(2), msec(1)), at_ms(15));
  EXPECT_TRUE(first.completed);
  EXPECT_EQ(first.response_time, msec(15));
  EXPECT_EQ(lifecycle->repository().observe(ReplicaId{1}).gateway_delay, msec(2));
  // A redundant reply still harvests t_d: 30 - 10 - 4 = 16 ms.
  const ReplyIntake second = lifecycle->on_reply(reply(RequestId{1}, 2, msec(4)), at_ms(30));
  EXPECT_FALSE(second.completed);
  EXPECT_EQ(lifecycle->repository().observe(ReplicaId{2}).gateway_delay, msec(16));
  EXPECT_EQ(lifecycle->td_clamped(), 0u);
}

TEST_F(RequestLifecycleTest, NegativeRawGatewayDelayIsClampedAndCounted) {
  auto lifecycle = make();
  start(*lifecycle, RequestId{1}, at_ms(10));
  (void)lifecycle->on_reply(reply(RequestId{1}, 1, msec(50)), at_ms(15));
  EXPECT_EQ(lifecycle->td_clamped(), 1u);
  EXPECT_EQ(lifecycle->repository().observe(ReplicaId{1}).gateway_delay, Duration::zero());
}

TEST_F(RequestLifecycleTest, HostilePerfDataIsRejectedBeforeTheRepository) {
  obs::Telemetry telemetry;
  auto lifecycle = make({}, {}, &telemetry);
  auto rejected = [&telemetry](const std::string& reason) {
    return telemetry.metrics().counter("wire.rejected." + reason).value();
  };
  start(*lifecycle, RequestId{1}, at_ms(1));
  const auto generation1 = lifecycle->repository().generation(ReplicaId{1});
  const auto generation2 = lifecycle->repository().generation(ReplicaId{2});
  EXPECT_FALSE(lifecycle->on_reply(reply(RequestId{1}, 1, usec(-5)), at_ms(2)).completed);
  EXPECT_EQ(rejected("negative_service_time"), 1u);
  EXPECT_EQ(lifecycle->repository().generation(ReplicaId{1}), generation1);
  proto::PerfUpdate update;
  update.replica = ReplicaId{2};
  update.perf.queue_length = -1;
  lifecycle->on_perf_update(update, at_ms(3));
  update.perf = {msec(1), usec(-1), 0, 0};
  lifecycle->on_perf_update(update, at_ms(3));
  EXPECT_EQ(rejected("negative_queue_length"), 1u);
  EXPECT_EQ(rejected("negative_queuing_delay"), 1u);
  EXPECT_EQ(lifecycle->repository().generation(ReplicaId{2}), generation2);
  // The request is untouched: the honest reply still completes it.
  EXPECT_TRUE(lifecycle->on_reply(reply(RequestId{1}, 1, msec(1)), at_ms(4)).completed);
}

TEST_F(RequestLifecycleTest, PerfSumPastDurationRangeIsRejected) {
  // t_s and t_q each above 2^62 pass the sign checks, but their sum —
  // the t_d formula's subtrahend — overflows.
  obs::Telemetry telemetry;
  auto lifecycle = make({}, {}, &telemetry);
  start(*lifecycle, RequestId{1}, at_ms(1));
  const auto generation = lifecycle->repository().generation(ReplicaId{1});
  const Duration huge = usec((std::int64_t{1} << 62) + 1);
  EXPECT_FALSE(lifecycle->on_reply(reply(RequestId{1}, 1, huge, huge), at_ms(2)).completed);
  EXPECT_EQ(telemetry.metrics().counter("wire.rejected.perf_overflow").value(), 1u);
  EXPECT_EQ(lifecycle->repository().generation(ReplicaId{1}), generation);
  EXPECT_EQ(lifecycle->td_clamped(), 0u);
  proto::PerfUpdate update;
  update.replica = ReplicaId{2};
  update.perf = {huge, huge, 0, 0};
  lifecycle->on_perf_update(update, at_ms(3));
  EXPECT_EQ(telemetry.metrics().counter("wire.rejected.perf_overflow").value(), 2u);
  // Without a hub the same reply is dropped just as quietly.
  auto bare = make();
  start(*bare, RequestId{1}, at_ms(1));
  EXPECT_FALSE(bare->on_reply(reply(RequestId{1}, 1, huge, huge), at_ms(2)).completed);
  EXPECT_TRUE(lifecycle->on_reply(reply(RequestId{1}, 1, msec(1)), at_ms(4)).completed);
}

TEST_F(RequestLifecycleTest, InRangePerfNearTheLimitGivesAClampedGatewayDelay) {
  // t_s + t_q just below INT64_MAX is admissible; t4 - t1 - t_q - t_s is
  // then hugely negative — clamped to zero and counted, not overflowed.
  auto lifecycle = make();
  start(*lifecycle, RequestId{1}, at_ms(10));
  const Duration half = usec(std::numeric_limits<std::int64_t>::max() / 2);
  const ReplyIntake intake = lifecycle->on_reply(reply(RequestId{1}, 1, half, half), at_ms(5));
  EXPECT_TRUE(intake.completed);
  EXPECT_EQ(lifecycle->td_clamped(), 1u);
  EXPECT_EQ(lifecycle->repository().observe(ReplicaId{1}).gateway_delay, Duration::zero());
}

TEST_F(RequestLifecycleTest, RejectionCountersAreRegisteredUpFront) {
  // Interned at construction: a rejection on a transport thread neither
  // builds a name nor looks one up.
  obs::Telemetry telemetry;
  auto lifecycle = make({}, {}, &telemetry);
  std::vector<std::string> names;
  for (const auto& [name, value] : telemetry.metrics().counters()) names.push_back(name);
  for (const char* reason : {"negative_service_time", "negative_queuing_delay",
                             "negative_queue_length", "perf_overflow"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), std::string("wire.rejected.") + reason),
              names.end())
        << reason;
  }
}

TEST_F(RequestLifecycleTest, CancelTargetsAreTheMembersStillAwaited) {
  DispatchConfig dispatch;
  dispatch.cancel_on_first_reply = true;
  dispatch.completion = CompletionSpec::quorum(2);
  auto lifecycle = make(dispatch);
  // Warm selection of all three (quorum clamps to |K| = 3 >= 2).
  start(*lifecycle, RequestId{1}, at_ms(1), {ReplicaId{1}, ReplicaId{2}, ReplicaId{3}});
  EXPECT_FALSE(lifecycle->on_reply(reply(RequestId{1}, 2, msec(1)), at_ms(3)).completed);
  const ReplyIntake done = lifecycle->on_reply(reply(RequestId{1}, 1, msec(1)), at_ms(4));
  ASSERT_TRUE(done.completed);
  ASSERT_TRUE(done.cancel.has_value());
  EXPECT_EQ(done.cancel->targets, std::vector<ReplicaId>{ReplicaId{3}});
  EXPECT_EQ(done.cancel->cancel.request, RequestId{1});
  EXPECT_EQ(lifecycle->cancels_sent(), 1u);
  EXPECT_EQ(lifecycle->outstanding(ReplicaId{3}), 0u);
  // Nothing is awaited and the outcome is decided: the request is done.
  EXPECT_TRUE(lifecycle->finish_if_complete(RequestId{1}));
  EXPECT_EQ(lifecycle->find(RequestId{1}), nullptr);
}

TEST_F(RequestLifecycleTest, RequestLivesUntilItsAwaitedRepliesDrain) {
  auto lifecycle = make();
  start(*lifecycle, RequestId{1}, at_ms(1));
  EXPECT_TRUE(lifecycle->on_reply(reply(RequestId{1}, 1, msec(1)), at_ms(3)).completed);
  EXPECT_FALSE(lifecycle->finish_if_complete(RequestId{1}));
  (void)lifecycle->on_reply(reply(RequestId{1}, 2, msec(1)), at_ms(4));
  EXPECT_FALSE(lifecycle->finish_if_complete(RequestId{1}));
  (void)lifecycle->on_reply(reply(RequestId{1}, 3, msec(1)), at_ms(5));
  EXPECT_TRUE(lifecycle->finish_if_complete(RequestId{1}));
}

TEST_F(RequestLifecycleTest, EvictingTheHedgedPrimaryReleasesTheHedgeSet) {
  DispatchConfig dispatch;
  dispatch.mode = DispatchMode::kHedged;
  auto lifecycle = make(dispatch);
  lifecycle->repository().remove_replica(ReplicaId{3});
  const PlannedDispatch plan = start(*lifecycle, RequestId{1}, at_ms(1));
  ASSERT_TRUE(plan.hedged);
  ASSERT_EQ(plan.primary.size(), 1u);
  EXPECT_TRUE(lifecycle->hedge_armed(RequestId{1}));
  const ReplicaId primary = plan.primary[0];

  const Eviction eviction = lifecycle->evict(std::vector<ReplicaId>{primary}, at_ms(2));
  ASSERT_EQ(eviction.hedges.size(), 1u);
  EXPECT_TRUE(eviction.unsatisfiable.empty());
  EXPECT_EQ(eviction.hedges[0].targets.size(), 1u);
  EXPECT_NE(eviction.hedges[0].targets[0], primary);
  EXPECT_EQ(lifecycle->hedges_fired(), 1u);
  EXPECT_FALSE(lifecycle->hedge_armed(RequestId{1}));
  EXPECT_TRUE(lifecycle->history().at(0).hedge_fired);
}

TEST_F(RequestLifecycleTest, EvictingEveryAwaitedMemberMakesTheRequestUnsatisfiable) {
  auto lifecycle = make();
  lifecycle->repository().remove_replica(ReplicaId{3});
  start(*lifecycle, RequestId{1}, at_ms(1), {ReplicaId{1}});
  const Eviction eviction = lifecycle->evict(std::vector<ReplicaId>{ReplicaId{1}}, at_ms(2));
  EXPECT_TRUE(eviction.hedges.empty());
  EXPECT_EQ(eviction.unsatisfiable, std::vector<RequestId>{RequestId{1}});
  EXPECT_FALSE(lifecycle->repository().contains(ReplicaId{1}));
}

TEST_F(RequestLifecycleTest, QosViolationIsReportedOnceAndReArmedByRecovery) {
  FailureTrackerConfig tracker;
  tracker.min_samples = 1;
  auto lifecycle = make({}, tracker);
  start(*lifecycle, RequestId{1}, at_ms(1));
  EXPECT_TRUE(lifecycle->on_deadline(RequestId{1}, at_ms(100)));    // edge
  EXPECT_FALSE(lifecycle->on_deadline(RequestId{1}, at_ms(100)));   // decided once
  start(*lifecycle, RequestId{2}, at_ms(1));
  EXPECT_FALSE(lifecycle->on_deadline(RequestId{2}, at_ms(100)));   // still violating
  lifecycle->renegotiate(QosSpec{msec(100), 0.9}, at_ms(200));
  start(*lifecycle, RequestId{3}, at_ms(1));
  EXPECT_TRUE(lifecycle->on_deadline(RequestId{3}, at_ms(100)));    // re-armed
  EXPECT_EQ(lifecycle->tracker().failures(), 1u);
  // A late completing reply is delivered but never re-decides the outcome.
  const ReplyIntake late = lifecycle->on_reply(reply(RequestId{3}, 1, msec(1)), at_ms(150));
  EXPECT_TRUE(late.completed);
  EXPECT_FALSE(late.timely);
  EXPECT_FALSE(lifecycle->history().at(2).timely);
}

}  // namespace
}  // namespace aqua::core
