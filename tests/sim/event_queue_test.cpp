#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "support/check.h"

namespace mb::sim {
namespace {

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesResolveInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] {
    ++fired;
    q.schedule_in(1.0, [&] { ++fired; });
  });
  q.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, ScheduleInIsRelative) {
  EventQueue q;
  double fired_at = -1;
  q.schedule_at(5.0, [&] {
    q.schedule_in(2.5, [&] { fired_at = q.now(); });
  });
  q.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(10.0, [&] { ++fired; });
  q.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, StepExecutesOne) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(q.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.step());
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, PastSchedulingRejected) {
  EventQueue q;
  q.schedule_at(5.0, [] {});
  q.run();
  EXPECT_THROW(q.schedule_at(1.0, [] {}), support::Error);
  EXPECT_THROW(q.schedule_in(-1.0, [] {}), support::Error);
}

TEST(EventQueue, EmptyCallbackRejected) {
  EventQueue q;
  EXPECT_THROW(q.schedule_at(1.0, EventQueue::Callback{}), support::Error);
}

TEST(EventQueue, ExecutedCountAccumulates) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.schedule_at(i, [] {});
  q.run();
  EXPECT_EQ(q.executed(), 5u);
}

TEST(EventQueue, CapturesAreDestroyedOnceWhetherRunOrPending) {
  auto token = std::make_shared<int>(3);
  int sum = 0;
  {
    EventQueue q;
    for (int i = 0; i < 100; ++i) {
      if (i % 2 == 0) {
        q.schedule_at(i, [token, &sum] { sum += *token; });
      } else {
        // Past SmallFn's inline capacity: the heap-held capture.
        std::array<int, 16> pad{};
        pad[0] = 1;
        q.schedule_at(i, [token, pad, &sum] { sum += *token * pad[0]; });
      }
    }
    EXPECT_EQ(token.use_count(), 101);
    q.run_until(59.5);  // runs 60 events, leaves 40 pending
    EXPECT_EQ(sum, 180);
    EXPECT_EQ(token.use_count(), 41);
    // Callbacks parked in reused slots die with the queue as well.
    for (int i = 0; i < 60; ++i) q.schedule_at(200.0, [token] {});
    EXPECT_EQ(token.use_count(), 101);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, RunningCallbackOutlivesSlotArrayGrowth) {
  EventQueue q;
  std::vector<int> seen;
  // A heap-owning capture: were the callback run in place, the array's
  // growth would relocate it mid-call and leave it reading freed memory.
  std::vector<int> captured = {4, 8, 15, 16};
  q.schedule_at(1.0, [&q, &seen, captured] {
    for (int i = 0; i < 5000; ++i) q.schedule_in(1.0, [] {});
    seen = captured;
  });
  q.run();
  EXPECT_EQ(seen, captured);
  EXPECT_EQ(q.executed(), 5001u);
}

}  // namespace
}  // namespace mb::sim
