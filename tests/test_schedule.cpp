// Unit tests of the event-driven scheduler core (runtime/schedule.hpp):
// the calendar queue's window/ordering/idle contracts and the adaptive
// sampling policy's gap function. Everything here is single-threaded by
// design — determinism of the sharded runtime rests on these being pure
// sequential data structures.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "runtime/schedule.hpp"

namespace pfm::runtime {
namespace {

TEST(SchedulePolicy, DenseModeAlwaysReturnsGapOne) {
  SchedulePolicy policy;  // adaptive = false
  policy.validate();
  for (std::size_t prev : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    EXPECT_EQ(policy.next_gap(prev, false), 1u);
    EXPECT_EQ(policy.next_gap(prev, true), 1u);
  }
}

TEST(SchedulePolicy, AdaptiveBackoffDoublesUpToMaxGapAndSnapsBackWhenHot) {
  SchedulePolicy policy;
  policy.adaptive = true;
  policy.max_gap = 8;
  policy.validate();

  // Quiet node: 1 -> 2 -> 4 -> 8 -> 8 -> ...
  std::size_t gap = 1;
  std::vector<std::size_t> seen;
  for (int i = 0; i < 5; ++i) {
    gap = policy.next_gap(gap, false);
    seen.push_back(gap);
  }
  EXPECT_EQ(seen, (std::vector<std::size_t>{2, 4, 8, 8, 8}));

  // One hot visit snaps straight back to dense, whatever the backoff was.
  EXPECT_EQ(policy.next_gap(8, true), 1u);
  EXPECT_EQ(policy.next_gap(2, true), 1u);
}

TEST(SchedulePolicy, ValidateRejectsBadKnobs) {
  SchedulePolicy policy;
  policy.max_gap = 0;
  EXPECT_THROW(policy.validate(), std::invalid_argument);
  policy.max_gap = 4;
  policy.hot_score_fraction = -0.1;
  EXPECT_THROW(policy.validate(), std::invalid_argument);
}

TEST(CalendarQueue, PopsTicksInOrderWithSortedDueSets) {
  CalendarQueue q(8);
  // Insert out of node order at mixed ticks.
  q.schedule(2, 7);
  q.schedule(0, 3);
  q.schedule(2, 1);
  q.schedule(0, 9);
  q.schedule(0, 0);
  EXPECT_EQ(q.scheduled(), 5u);

  std::uint64_t tick = 99;
  std::vector<std::uint32_t> due;
  ASSERT_TRUE(q.pop_due(8, tick, due));
  EXPECT_EQ(tick, 0u);
  EXPECT_EQ(due, (std::vector<std::uint32_t>{0, 3, 9}));
  ASSERT_TRUE(q.pop_due(8, tick, due));
  EXPECT_EQ(tick, 2u);
  EXPECT_EQ(due, (std::vector<std::uint32_t>{1, 7}));
  EXPECT_FALSE(q.pop_due(8, tick, due));
  EXPECT_TRUE(due.empty());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.cursor(), 8u);
}

TEST(CalendarQueue, PopStopsAtTheEpochBoundary) {
  CalendarQueue q(8);
  q.schedule(5, 1);
  std::uint64_t tick = 0;
  std::vector<std::uint32_t> due;
  // The item at tick 5 is outside the epoch [0, 4).
  EXPECT_FALSE(q.pop_due(4, tick, due));
  EXPECT_EQ(q.cursor(), 4u);
  EXPECT_FALSE(q.empty());
  // The next epoch reaches it.
  ASSERT_TRUE(q.pop_due(8, tick, due));
  EXPECT_EQ(tick, 5u);
  EXPECT_EQ(due, (std::vector<std::uint32_t>{1}));
}

TEST(CalendarQueue, IdleCalendarJumpsTheCursorToTheEpochBoundary) {
  CalendarQueue q(4);
  std::uint64_t tick = 0;
  std::vector<std::uint32_t> due;
  EXPECT_FALSE(q.pop_due(100, tick, due));
  // An idle shard stays on the shared epoch grid: a later activation
  // lands at the same tick every other shard uses.
  EXPECT_EQ(q.cursor(), 100u);
  q.schedule(100, 5);
  ASSERT_TRUE(q.pop_due(104, tick, due));
  EXPECT_EQ(tick, 100u);
  EXPECT_EQ(due, (std::vector<std::uint32_t>{5}));
}

TEST(CalendarQueue, RingReusesSlotsAcrossManyEpochs) {
  CalendarQueue q(4);
  std::uint64_t tick = 0;
  std::vector<std::uint32_t> due;
  // A single node hopping forward by 3 ticks for many laps of the ring.
  std::uint64_t at = 0;
  q.schedule(at, 0);
  for (int lap = 0; lap < 100; ++lap) {
    ASSERT_TRUE(q.pop_due(at + 1, tick, due));
    EXPECT_EQ(tick, at);
    EXPECT_EQ(due.size(), 1u);
    at += 3;
    q.schedule(at, 0);
  }
  EXPECT_EQ(q.scheduled(), 1u);
}

TEST(CalendarQueue, RejectsTicksOutsideTheWindow) {
  CalendarQueue q(4);
  std::uint64_t tick = 0;
  std::vector<std::uint32_t> due;
  EXPECT_FALSE(q.pop_due(2, tick, due));  // cursor -> 2
  EXPECT_THROW(q.schedule(1, 0), std::logic_error);   // behind the cursor
  EXPECT_THROW(q.schedule(6, 0), std::logic_error);   // beyond the ring
  q.schedule(2, 0);                                   // cursor itself: fine
  q.schedule(5, 1);                                   // last in-window slot
  EXPECT_EQ(q.scheduled(), 2u);
}

TEST(CalendarQueue, ClearEmptiesEveryBucket) {
  CalendarQueue q(4);
  q.schedule(0, 1);
  q.schedule(2, 2);
  q.clear();
  EXPECT_TRUE(q.empty());
  std::uint64_t tick = 0;
  std::vector<std::uint32_t> due;
  EXPECT_FALSE(q.pop_due(4, tick, due));
}

}  // namespace
}  // namespace pfm::runtime
