#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/time.h"

namespace aqua::sim {
namespace {

TEST(SimulatorTest, ClockStartsAtEpoch) {
  Simulator sim;
  EXPECT_EQ(count_us(sim.now()), 0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(msec(30), [&] { order.push_back(3); });
  sim.schedule_after(msec(10), [&] { order.push_back(1); });
  sim.schedule_after(msec(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, TiesFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(msec(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator sim;
  TimePoint seen{};
  sim.schedule_after(msec(42), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, TimePoint{} + msec(42));
  EXPECT_EQ(sim.now(), TimePoint{} + msec(42));
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(msec(1), [&] {
    ++fired;
    sim.schedule_after(msec(1), [&] {
      ++fired;
      sim.schedule_after(msec(1), [&] { ++fired; });
    });
  });
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), TimePoint{} + msec(3));
}

TEST(SimulatorTest, ZeroDelayEventRunsAtCurrentTime) {
  Simulator sim;
  bool ran = false;
  sim.schedule_after(Duration::zero(), [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(count_us(sim.now()), 0);
}

TEST(SimulatorTest, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_after(msec(5), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(TimePoint{} + msec(1), [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(-msec(1), [] {}), std::invalid_argument);
}

TEST(SimulatorTest, NullEventRejected) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_after(msec(1), nullptr), std::invalid_argument);
}

TEST(SimulatorTest, StepExecutesExactlyOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(msec(1), [&] { ++fired; });
  sim.schedule_after(msec(2), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  std::vector<std::int64_t> fired_at;
  for (int i = 1; i <= 5; ++i) {
    sim.schedule_after(msec(i * 10), [&fired_at, &sim] { fired_at.push_back(count_us(sim.now())); });
  }
  sim.run_until(TimePoint{} + msec(30));
  EXPECT_EQ(fired_at.size(), 3u);          // 10, 20, 30 fired
  EXPECT_EQ(sim.now(), TimePoint{} + msec(30));
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(fired_at.size(), 5u);
}

TEST(SimulatorTest, RunUntilIdleAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.run_until(TimePoint{} + sec(5));
  EXPECT_EQ(sim.now(), TimePoint{} + sec(5));
}

TEST(SimulatorTest, RunUntilBackwardsThrows) {
  Simulator sim;
  sim.run_until(TimePoint{} + msec(10));
  EXPECT_THROW(sim.run_until(TimePoint{} + msec(5)), std::invalid_argument);
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim;
  sim.run_for(msec(10));
  sim.run_for(msec(10));
  EXPECT_EQ(sim.now(), TimePoint{} + msec(20));
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(msec(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_after(msec(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventHandle h = sim.schedule_after(msec(1), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  EXPECT_TRUE(h.cancel());
  EXPECT_FALSE(h.pending());
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(SimulatorTest, CancelIsIdempotentAndSafeAfterFire) {
  Simulator sim;
  EventHandle h = sim.schedule_after(msec(1), [] {});
  sim.run();
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.cancel());
  EXPECT_FALSE(h.cancel());
}

TEST(SimulatorTest, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.cancel());
}

TEST(SimulatorTest, CancelledEventsDoNotBlockQueue) {
  Simulator sim;
  std::vector<int> order;
  EventHandle h = sim.schedule_after(msec(1), [&] { order.push_back(1); });
  sim.schedule_after(msec(2), [&] { order.push_back(2); });
  h.cancel();
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(SimulatorTest, PendingEventCountTracksLifecycle) {
  Simulator sim;
  EventHandle a = sim.schedule_after(msec(1), [] {});
  sim.schedule_after(msec(2), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  a.cancel();
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(SimulatorTest, ManyEventsExecuteCorrectly) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10000; ++i) {
    sim.schedule_after(usec(i % 977), [&] { ++fired; });
  }
  sim.run();
  EXPECT_EQ(fired, 10000);
  EXPECT_EQ(sim.executed_events(), 10000u);
}

TEST(SimulatorTest, EventCancellingLaterEvent) {
  Simulator sim;
  bool late_fired = false;
  EventHandle late = sim.schedule_after(msec(10), [&] { late_fired = true; });
  sim.schedule_after(msec(5), [&] { late.cancel(); });
  sim.run();
  EXPECT_FALSE(late_fired);
}

TEST(SimulatorTest, EventCancellingSameTimestampLaterEvent) {
  Simulator sim;
  bool second_fired = false;
  EventHandle second;
  sim.schedule_after(msec(5), [&] { second.cancel(); });
  second = sim.schedule_after(msec(5), [&] { second_fired = true; });
  sim.run();
  EXPECT_FALSE(second_fired);
}

TEST(SimulatorTest, CancelTakesEffectOnPendingCountAtOnce) {
  Simulator sim;
  EventHandle a = sim.schedule_after(msec(1), [] {});
  sim.schedule_after(msec(2), [] {});
  ASSERT_TRUE(a.cancel());
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_FALSE(a.cancel());
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(EventHandleTest, StaleHandleIgnoresTheEventRecyclingItsSlot) {
  Simulator sim;
  int first = 0;
  int second = 0;
  EventHandle stale = sim.schedule_after(msec(1), [&] { ++first; });
  ASSERT_TRUE(stale.cancel());
  // The freed slot is the only one on the free list, so the next event
  // takes it over with a new generation.
  EventHandle fresh = sim.schedule_after(msec(1), [&] { ++second; });
  EXPECT_FALSE(stale.pending());
  EXPECT_FALSE(stale.cancel());
  EXPECT_TRUE(fresh.pending());
  sim.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);

  // Same after the slot's event FIRED rather than being cancelled.
  EventHandle fired = sim.schedule_after(msec(1), [] {});
  sim.run();
  int third = 0;
  EventHandle next = sim.schedule_after(msec(1), [&] { ++third; });
  EXPECT_FALSE(fired.pending());
  EXPECT_FALSE(fired.cancel());
  EXPECT_TRUE(next.pending());
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(third, 1);
}

TEST(EventHandleTest, StaleHandlesStayInertAcrossManyRecycles) {
  Simulator sim;
  std::vector<EventHandle> old;
  int fired = 0;
  for (int round = 0; round < 2000; ++round) {
    EventHandle h = sim.schedule_after(usec(round % 7), [&] { ++fired; });
    if (round % 3 == 0) h.cancel();
    for (EventHandle& stale : old) {
      EXPECT_FALSE(stale.cancel());
      EXPECT_FALSE(stale.pending());
    }
    ASSERT_EQ(sim.pending_events(), round % 3 == 0 ? 0u : 1u);
    sim.run();
    old.push_back(h);
    if (old.size() > 8) old.erase(old.begin());
  }
  EXPECT_EQ(fired, 2000 - 667);
}

TEST(EventHandleTest, EventIsNoLongerPendingInsideItsOwnCallback) {
  Simulator sim;
  EventHandle self;
  bool pending_inside = true;
  bool cancelled_inside = true;
  self = sim.schedule_after(msec(1), [&] {
    pending_inside = self.pending();
    cancelled_inside = self.cancel();
  });
  sim.run();
  EXPECT_FALSE(pending_inside);
  EXPECT_FALSE(cancelled_inside);
  EXPECT_EQ(sim.executed_events(), 1u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(EventHandleTest, CallbackCancelsAnotherEventAtTheSameTimestamp) {
  Simulator sim;
  std::vector<int> order;
  EventHandle victim;
  sim.schedule_after(msec(5), [&] {
    order.push_back(1);
    EXPECT_TRUE(victim.pending());
    EXPECT_TRUE(victim.cancel());
    EXPECT_EQ(sim.pending_events(), 1u);  // only the survivor below
  });
  victim = sim.schedule_after(msec(5), [&] { order.push_back(2); });
  sim.schedule_after(msec(5), [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_FALSE(victim.pending());
}

TEST(EventHandleTest, CallbackReschedulingIntoItsFreedSlotKeepsFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  EventHandle a = sim.schedule_after(msec(1), [&] { order.push_back(1); });
  sim.schedule_after(msec(1), [&] {
    order.push_back(2);
    // Recycles a's slot while this callback still runs in its own.
    sim.schedule_after(Duration::zero(), [&] { order.push_back(4); });
  });
  sim.schedule_after(msec(1), [&] { order.push_back(3); });
  ASSERT_TRUE(a.cancel());
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 4}));
}

TEST(EventHandleTest, ClosuresLargerThanTheInlineCapacityRunAndAreReleased) {
  Simulator sim;
  auto token = std::make_shared<int>(0);
  std::array<std::int64_t, 64> big{};  // 512 bytes: stored on the heap
  static_assert(sizeof(big) > Simulator::kInlineCapacity);
  big[63] = 41;
  std::int64_t seen = 0;
  sim.schedule_after(msec(1), [big, token, &seen] { seen = big[63] + 1; });
  EventHandle cancelled = sim.schedule_after(msec(2), [big, token] { (void)big; });
  EXPECT_EQ(token.use_count(), 3);
  ASSERT_TRUE(cancelled.cancel());
  EXPECT_EQ(token.use_count(), 2);  // released at cancel, not at pop
  sim.run();
  EXPECT_EQ(seen, 42);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventHandleTest, SimulatorDestroysPendingCallbacks) {
  auto token = std::make_shared<int>(0);
  {
    Simulator sim;
    sim.schedule_after(msec(1), [token] {});
    sim.schedule_after(msec(2), [token, pad = std::array<char, 256>{}] { (void)pad; });
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventHandleTest, CallbackThatThrowsReleasesItsSlot) {
  Simulator sim;
  auto token = std::make_shared<int>(0);
  sim.schedule_after(msec(1), [token] { throw std::runtime_error("boom"); });
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(sim.pending_events(), 0u);
  bool ran = false;
  sim.schedule_after(msec(1), [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(EventHandleTest, HandlesMayOutliveTheirSimulatorButNotBeUsed) {
  // Ownership rule: destroying or overwriting a handle after its
  // simulator is gone is safe; calling cancel()/pending() is not (and
  // AquaSystem's declaration order rules it out for its components).
  EventHandle survivor;
  {
    Simulator sim;
    survivor = sim.schedule_after(msec(1), [] {});
  }
  survivor = EventHandle{};
  EXPECT_FALSE(survivor.pending());
}

}  // namespace
}  // namespace aqua::sim
