// Deterministic event scheduler tests: ordering, tie-breaking, clamping,
// the run_until horizon semantics the simulator depends on, and typed
// records sharing one order with erased actions.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/event_queue.hpp"

namespace pam {
namespace {

/// Appends each record's `a` word to `seen`.
struct Recorder final : EventSink {
  std::vector<int>* seen = nullptr;
  void on_event(const EventRecord& ev) override {
    seen->push_back(static_cast<int>(ev.a));
  }
};

TEST(EventQueue, StartsEmptyAtZero) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.now().ns(), 0);
  EXPECT_FALSE(q.run_one());
}

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(SimTime::microseconds(30), [&] { order.push_back(3); });
  q.schedule_at(SimTime::microseconds(10), [&] { order.push_back(1); });
  q.schedule_at(SimTime::microseconds(20), [&] { order.push_back(2); });
  while (q.run_one()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now().us(), 30.0);
  EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueue, TiesBreakInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(SimTime::microseconds(5), [&order, i] { order.push_back(i); });
  }
  while (q.run_one()) {
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueue, SchedulingInThePastClampsToNow) {
  EventQueue q;
  bool second_ran = false;
  q.schedule_at(SimTime::microseconds(10), [&] {
    q.schedule_at(SimTime::microseconds(5), [&] {
      second_ran = true;
      EXPECT_EQ(q.now().us(), 10.0);  // clamped, time never goes backwards
    });
  });
  while (q.run_one()) {
  }
  EXPECT_TRUE(second_ran);
}

TEST(EventQueue, ScheduleAfterIsRelative) {
  EventQueue q;
  SimTime fired = SimTime::zero();
  q.schedule_at(SimTime::microseconds(10), [&] {
    q.schedule_after(SimTime::microseconds(7), [&] { fired = q.now(); });
  });
  while (q.run_one()) {
  }
  EXPECT_EQ(fired.us(), 17.0);
}

TEST(EventQueue, RunUntilStopsAtHorizon) {
  EventQueue q;
  int ran = 0;
  q.schedule_at(SimTime::microseconds(10), [&] { ++ran; });
  q.schedule_at(SimTime::microseconds(20), [&] { ++ran; });
  q.schedule_at(SimTime::microseconds(30), [&] { ++ran; });
  q.run_until(SimTime::microseconds(20));
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(q.now().us(), 20.0);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunUntilAdvancesClockWhenIdle) {
  EventQueue q;
  q.run_until(SimTime::milliseconds(5));
  EXPECT_EQ(q.now().ms(), 5.0);
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) {
      q.schedule_after(SimTime::microseconds(1), recurse);
    }
  };
  q.schedule_at(SimTime::zero(), recurse);
  while (q.run_one()) {
  }
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(q.now().us(), 99.0);
}

TEST(EventQueue, InterleavedRunUntilCalls) {
  EventQueue q;
  int ran = 0;
  for (int i = 1; i <= 10; ++i) {
    q.schedule_at(SimTime::microseconds(i), [&] { ++ran; });
  }
  q.run_until(SimTime::microseconds(5));
  EXPECT_EQ(ran, 5);
  q.run_until(SimTime::microseconds(10));
  EXPECT_EQ(ran, 10);
}

TEST(EventQueue, RecordsAndActionsAtEqualTimesKeepSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  Recorder sink;
  sink.seen = &order;
  for (int i = 0; i < 12; ++i) {
    if (i % 3 == 0) {
      q.schedule_at(SimTime::microseconds(5), [&order, i] { order.push_back(i); });
    } else {
      EventRecord rec;
      rec.sink = &sink;
      rec.a = static_cast<std::uint64_t>(i);
      q.schedule_at(SimTime::microseconds(5), rec);
    }
  }
  while (q.run_one()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
  EXPECT_EQ(q.executed(), 12u);
}

TEST(EventQueue, RecordPayloadReachesSinkIntact) {
  struct Capture final : EventSink {
    EventRecord got;
    SimTime at;
    EventQueue* q = nullptr;
    void on_event(const EventRecord& ev) override {
      got = ev;
      at = q->now();
    }
  };
  EventQueue q;
  Capture sink;
  sink.q = &q;
  EventRecord rec;
  rec.sink = &sink;
  rec.kind = 7;
  rec.node = 3;
  rec.a = 1;
  rec.b = ~std::uint64_t{0};
  rec.c = 42;
  q.schedule_after(SimTime::nanoseconds(250), rec);
  ASSERT_TRUE(q.run_one());
  EXPECT_EQ(sink.at.ns(), 250);
  EXPECT_EQ(sink.got.sink, &sink);
  EXPECT_EQ(sink.got.kind, 7u);
  EXPECT_EQ(sink.got.node, 3u);
  EXPECT_EQ(sink.got.a, 1u);
  EXPECT_EQ(sink.got.b, ~std::uint64_t{0});
  EXPECT_EQ(sink.got.c, 42u);
}

TEST(EventQueue, ParkedActionRunsOnceWhenDispatched) {
  EventQueue q;
  int ran = 0;
  const EventRecord rec = q.park([&] { ++ran; });
  EXPECT_EQ(rec.sink, nullptr);
  EXPECT_TRUE(q.empty());  // parking schedules nothing
  q.dispatch(rec);
  EXPECT_EQ(ran, 1);
}

TEST(EventQueue, ActionsReuseSlotsWhileRunning) {
  // Each action frees its slot before it runs and parks the next one,
  // which may take the same slot; a stateful action keeps its own state.
  EventQueue q;
  std::vector<int> order;
  for (int chain = 0; chain < 3; ++chain) {
    q.schedule_at(SimTime::microseconds(chain), [&q, &order, chain, hops = 0]() mutable {
      order.push_back(chain * 10 + hops);
      std::function<void()> next = [&order, chain] { order.push_back(chain * 10 + 9); };
      q.schedule_after(SimTime::microseconds(10), std::move(next));
      ++hops;
    });
  }
  while (q.run_one()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 10, 20, 9, 19, 29}));
}

}  // namespace
}  // namespace pam
