#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace spider::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(msec(30), [&] { order.push_back(3); });
  q.push(msec(10), [&] { order.push_back(1); });
  q.push(msec(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(msec(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop_and_run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelledEventsSkipped) {
  EventQueue q;
  int ran = 0;
  auto h = q.push(msec(1), [&] { ++ran; });
  q.push(msec(2), [&] { ++ran; });
  h.cancel();
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(ran, 1);
}

TEST(EventQueue, CancelAllMakesEmpty) {
  EventQueue q;
  auto a = q.push(msec(1), [] {});
  auto b = q.push(msec(2), [] {});
  a.cancel();
  b.cancel();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), Time::max());
}

TEST(EventQueue, HandleDefaultInvalid) {
  EventHandle h;
  EXPECT_FALSE(h.valid());
  h.cancel();  // must be a safe no-op
}

TEST(EventQueue, CallbackMayScheduleMore) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) q.push(msec(depth), recurse);
  };
  q.push(msec(0), recurse);
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(depth, 5);
}

TEST(EventQueue, TieSplitAcrossTiersRunsInSeqOrder) {
  // A is pushed while T is beyond the near-tier window, so it waits in the
  // far tier. Once the window has slid over T, B lands in the near tier at
  // the same timestamp. A was pushed first, so it must run first.
  EventQueue q;
  std::vector<char> order;
  const Time t = EventQueue::kWheelSpan + usec(100);
  q.push(t, [&] { order.push_back('A'); });
  q.push(usec(1000), [&] { order.push_back('.'); });
  EXPECT_EQ(q.pop_and_run(), usec(1000));  // window is now [1000, 1000 + span)
  q.push(t, [&] { order.push_back('B'); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<char>{'.', 'A', 'B'}));
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator s;
  Time seen{0};
  s.schedule(msec(250), [&] { seen = s.now(); });
  s.run_until(sec(1));
  EXPECT_EQ(seen, msec(250));
  EXPECT_EQ(s.now(), sec(1));  // clock lands on the deadline
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator s;
  int ran = 0;
  s.schedule(msec(100), [&] { ++ran; });
  s.schedule(sec(2), [&] { ++ran; });
  s.run_until(sec(1));
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(s.pending());
  s.run_until(sec(3));
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, ScheduleAtAbsolute) {
  Simulator s;
  Time seen{-1};
  s.schedule_at(msec(700), [&] { seen = s.now(); });
  s.run_until(sec(1));
  EXPECT_EQ(seen, msec(700));
}

TEST(Simulator, StopInterruptsRun) {
  Simulator s;
  int ran = 0;
  s.schedule(msec(1), [&] {
    ++ran;
    s.stop();
  });
  s.schedule(msec(2), [&] { ++ran; });
  s.run_until(sec(1));
  EXPECT_EQ(ran, 1);
  s.run_until(sec(1));
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, EventCountTracksExecutions) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.schedule(msec(i), [] {});
  s.run_all();
  EXPECT_EQ(s.events_executed(), 7u);
}

TEST(Simulator, ZeroDelayRunsAtCurrentTime) {
  Simulator s;
  s.schedule(msec(10), [&] {
    s.schedule(Time{0}, [&] { EXPECT_EQ(s.now(), msec(10)); });
  });
  s.run_all();
  EXPECT_EQ(s.now(), msec(10));
}

TEST(PeriodicTimer, FiresAtPeriod) {
  Simulator s;
  int ticks = 0;
  PeriodicTimer t(s, msec(100), [&] { ++ticks; });
  t.start();
  s.run_until(msec(1001));
  EXPECT_EQ(ticks, 10);
}

TEST(PeriodicTimer, StopHalts) {
  Simulator s;
  int ticks = 0;
  PeriodicTimer t(s, msec(100), [&] {
    if (++ticks == 3) t.stop();
  });
  t.start();
  s.run_until(sec(5));
  EXPECT_EQ(ticks, 3);
}

TEST(PeriodicTimer, RestartAfterStop) {
  Simulator s;
  int ticks = 0;
  PeriodicTimer t(s, msec(50), [&] { ++ticks; });
  t.start();
  s.run_until(msec(120));
  t.stop();
  s.run_until(msec(500));
  const int at_stop = ticks;
  t.start();
  s.run_until(msec(700));
  EXPECT_GT(ticks, at_stop);
}

TEST(PeriodicTimer, DestructionCancels) {
  Simulator s;
  int ticks = 0;
  {
    PeriodicTimer t(s, msec(10), [&] { ++ticks; });
    t.start();
    s.run_until(msec(35));
  }
  s.run_until(sec(1));
  EXPECT_EQ(ticks, 3);
}

TEST(CancelToken, FirstReasonWins) {
  CancelToken t;
  EXPECT_FALSE(t.cancel_requested());
  EXPECT_EQ(t.reason(), CancelReason::kNone);
  EXPECT_TRUE(t.request_cancel(CancelReason::kCancelled));
  EXPECT_FALSE(t.request_cancel(CancelReason::kDeadlineExceeded));
  EXPECT_EQ(t.reason(), CancelReason::kCancelled);
  EXPECT_TRUE(t.cancel_requested());
}

TEST(CancelToken, ExpiredDeadlineTripsExactlyOnce) {
  CancelToken t;
  t.arm_deadline_after(std::chrono::nanoseconds(-1));
  // cancel_requested() never reads the clock: the token reads untripped
  // until someone polls should_stop().
  EXPECT_FALSE(t.cancel_requested());
  EXPECT_TRUE(t.should_stop());  // this poll trips it...
  EXPECT_EQ(t.reason(), CancelReason::kDeadlineExceeded);
  EXPECT_TRUE(t.cancel_requested());
  EXPECT_FALSE(t.request_cancel());  // ...so a later cancel loses
  EXPECT_EQ(t.reason(), CancelReason::kDeadlineExceeded);
  EXPECT_TRUE(t.should_stop());
}

TEST(Simulator, PreTrippedTokenStopsOnEntry) {
  Simulator s;
  CancelToken t;
  t.request_cancel();
  s.set_cancel_token(&t);
  int ran = 0;
  s.schedule(msec(1), [&] { ++ran; });
  s.run_until(sec(1));
  EXPECT_TRUE(s.interrupted());
  EXPECT_EQ(ran, 0);
}

TEST(Simulator, TokenTrippedMidRunInterruptsWithinInterval) {
  Simulator s;
  CancelToken t;
  s.set_cancel_token(&t);
  std::uint64_t ran = 0;
  // A self-rescheduling chain that would run 1M events; trip after 10k.
  std::function<void()> step = [&] {
    ++ran;
    if (ran == 10000) t.request_cancel();
    if (ran < 1000000) s.post(msec(1), std::function<void()>(step));
  };
  s.post(msec(1), std::function<void()>(step));
  s.run_all();
  EXPECT_TRUE(s.interrupted());
  EXPECT_GE(ran, 10000u);
  // The poll cadence bounds the overshoot to one check interval.
  EXPECT_LT(ran, 10000u + 2048u);
}

TEST(Simulator, CompletedRunClearsInterrupted) {
  Simulator s;
  CancelToken t;
  s.set_cancel_token(&t);
  t.request_cancel();
  s.schedule(msec(1), [] {});
  s.run_until(sec(1));
  EXPECT_TRUE(s.interrupted());
  CancelToken fresh;  // tokens are set-once; a new run gets a new one
  s.set_cancel_token(&fresh);
  s.run_until(sec(2));
  EXPECT_FALSE(s.interrupted());
  EXPECT_EQ(s.now(), sec(2));
}

TEST(Simulator, CancelFromAnotherThread) {
  Simulator s;
  CancelToken t;
  s.set_cancel_token(&t);
  std::atomic<bool> started{false};
  std::function<void()> step = [&] {
    started = true;
    s.post(msec(1), std::function<void()>(step));  // endless unless tripped
  };
  s.post(msec(1), std::function<void()>(step));
  std::thread canceller([&] {
    while (!started) std::this_thread::yield();
    t.request_cancel(CancelReason::kCancelled);
  });
  s.run_all();  // would never return without the token
  canceller.join();
  EXPECT_TRUE(s.interrupted());
  EXPECT_EQ(t.reason(), CancelReason::kCancelled);
}

}  // namespace
}  // namespace spider::sim
