#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace hermes::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&](Time) { order.push_back(3); });
  q.schedule(10, [&](Time) { order.push_back(1); });
  q.schedule(20, [&](Time) { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, TiesBreakByScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    q.schedule(42, [&order, i](Time) { order.push_back(i); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbacksMaySchedule) {
  EventQueue q;
  int fired = 0;
  q.schedule(1, [&](Time now) {
    ++fired;
    q.schedule(now + 1, [&](Time) { ++fired; });
  });
  q.run_all();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 2);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  int fired = 0;
  q.schedule(10, [&](Time) { ++fired; });
  q.schedule(20, [&](Time) { ++fired; });
  q.run_until(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 15);
  EXPECT_EQ(q.size(), 1u);
  q.run_until(20);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ScheduleInUsesCurrentTime) {
  EventQueue q;
  Time seen = -1;
  q.schedule(5, [&](Time) {
    q.schedule_in(7, [&](Time t) { seen = t; });
  });
  q.run_all();
  EXPECT_EQ(seen, 12);
}

TEST(EventQueue, RunNextOnEmptyReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.run_next());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, LateScheduleClampsToNowAndCounts) {
  obs::Registry reg;
  obs::attach(&reg);
  {
    EventQueue q;
    std::vector<Time> fired;
    q.schedule(10, [&](Time) {
      q.schedule(5, [&](Time t) { fired.push_back(t); });  // in the past
    });
    q.run_all();
    ASSERT_EQ(fired.size(), 1u);   // never dropped, and fires...
    EXPECT_EQ(fired[0], 10);       // ...at the clamped time, not t=5
    EXPECT_EQ(q.now(), 10);        // the clock never ran backwards
  }
  obs::attach(nullptr);
  EXPECT_EQ(reg.counter_value("sim.late_schedules"), 1u);
}

TEST(EventQueue, OnTimeSchedulesDoNotCountAsLate) {
  obs::Registry reg;
  obs::attach(&reg);
  {
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&](Time now) {
      q.schedule(now, [&](Time) { ++fired; });      // exactly now: fine
      q.schedule(now + 5, [&](Time) { ++fired; });  // future: fine
    });
    q.run_all();
    EXPECT_EQ(fired, 2);
  }
  obs::attach(nullptr);
  EXPECT_EQ(reg.counter_value("sim.late_schedules"), 0u);
}

TEST(EventQueue, LateEventsPreserveScheduleOrderAtClampedTime) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(10, [&](Time) {
    q.schedule(3, [&](Time) { order.push_back(1); });
    q.schedule(1, [&](Time) { order.push_back(2); });
    q.schedule(10, [&](Time) { order.push_back(3); });
  });
  q.run_all();
  // All three land at t=10; the seq tie-break keeps scheduling order.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, RunAllRespectsCap) {
  EventQueue q;
  int fired = 0;
  // Self-perpetuating event chain.
  std::function<void(Time)> tick = [&](Time now) {
    ++fired;
    q.schedule(now + 1, tick);
  };
  q.schedule(0, tick);
  q.run_all(100);
  EXPECT_EQ(fired, 100);
}

}  // namespace
}  // namespace hermes::sim
