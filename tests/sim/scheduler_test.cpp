#include "horus/sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace horus::sim {
namespace {

TEST(Scheduler, RunsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule(30, [&] { order.push_back(3); });
  s.schedule(10, [&] { order.push_back(1); });
  s.schedule(20, [&] { order.push_back(2); });
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30u);
}

TEST(Scheduler, FifoAmongEqualTimes) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule(5, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, NestedScheduling) {
  Scheduler s;
  std::vector<std::pair<Time, int>> log;
  s.schedule(10, [&] {
    log.push_back({s.now(), 1});
    s.schedule(5, [&] { log.push_back({s.now(), 2}); });
    s.schedule(0, [&] { log.push_back({s.now(), 3}); });
  });
  s.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], (std::pair<Time, int>{10, 1}));
  EXPECT_EQ(log[1], (std::pair<Time, int>{10, 3}));  // same-time, after parent
  EXPECT_EQ(log[2], (std::pair<Time, int>{15, 2}));
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  int ran = 0;
  TimerId id = s.schedule(10, [&] { ++ran; });
  s.schedule(20, [&] { ++ran; });
  s.cancel(id);
  EXPECT_EQ(s.run(), 1u);
  EXPECT_EQ(ran, 1);
}

TEST(Scheduler, CancelAfterFireIsSafe) {
  Scheduler s;
  TimerId id = s.schedule(1, [] {});
  s.run();
  s.cancel(id);  // no effect, no crash
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_TRUE(s.empty());
  s.schedule(1, [] {});
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.run(), 1u);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, RunUntilAdvancesClockToDeadline) {
  Scheduler s;
  int ran = 0;
  s.schedule(100, [&] { ++ran; });
  s.schedule(200, [&] { ++ran; });
  EXPECT_EQ(s.run_until(150), 1u);
  EXPECT_EQ(s.now(), 150u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(s.run_until(300), 1u);
  EXPECT_EQ(s.now(), 300u);
}

TEST(Scheduler, RunForIsRelative) {
  Scheduler s;
  s.schedule(10, [] {});
  s.run();  // now = 10
  int ran = 0;
  s.schedule(5, [&] { ++ran; });
  s.schedule(50, [&] { ++ran; });
  s.run_for(20);  // until t=30
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(s.now(), 30u);
}

TEST(Scheduler, StepRunsOne) {
  Scheduler s;
  int ran = 0;
  s.schedule(1, [&] { ++ran; });
  s.schedule(2, [&] { ++ran; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, PendingCountsCancellations) {
  Scheduler s;
  TimerId a = s.schedule(1, [] {});
  s.schedule(2, [] {});
  EXPECT_EQ(s.pending(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_FALSE(s.empty());
  s.run();
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, CancelZeroAndUnknownIdsAreNoOps) {
  // Layers keep a zeroed TimerId for "no timer armed" and cancel it
  // unconditionally; that must not poison the bookkeeping.
  Scheduler s;
  s.cancel(0);
  s.cancel(12345);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_TRUE(s.empty());
  int ran = 0;
  s.schedule(1, [&] { ++ran; });
  s.cancel(0);
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.run(), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, SweepOfFiredCancelsKeepsLiveOnes) {
  // Cancelling fired timers over and over must neither grow without bound
  // nor lose a cancellation of an event still queued.
  Scheduler s;
  int ran = 0;
  TimerId doomed = s.schedule(1'000'000, [&] { ran += 100; });
  s.cancel(doomed);
  s.schedule(2'000'000, [&] { ++ran; });
  for (int i = 0; i < 1000; ++i) {
    TimerId t = s.schedule(1, [] {});
    s.step();
    s.cancel(t);
  }
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(s.run(), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, ManyEventsStaySorted) {
  Scheduler s;
  Time last = 0;
  bool monotone = true;
  for (int i = 0; i < 1000; ++i) {
    Duration d = static_cast<Duration>((i * 7919) % 1000);
    s.schedule(d, [&, d] {
      if (s.now() < last) monotone = false;
      last = s.now();
    });
  }
  s.run();
  EXPECT_TRUE(monotone);
}

}  // namespace
}  // namespace horus::sim
