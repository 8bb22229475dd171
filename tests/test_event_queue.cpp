// Deterministic event scheduler tests: ordering, tie-breaking, clamping,
// the run_until horizon semantics the simulator depends on, typed records
// sharing one order with erased actions, and delay lines and the arrival
// line sharing it with the heap.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
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

EventRecord tagged(EventSink* sink, int tag) {
  EventRecord rec;
  rec.sink = sink;
  rec.a = static_cast<std::uint64_t>(tag);
  return rec;
}

TEST(EventQueue, EqualTimesKeepSchedulingOrderAcrossHeapActionsAndLines) {
  // Every event below runs at 10 us: heap records, erased actions, and
  // two delay lines (10 us scheduled at 0, 6 us scheduled at 4 us).
  EventQueue q;
  std::vector<int> order;
  Recorder sink;
  sink.seen = &order;
  const SimTime at = SimTime::microseconds(10);
  q.schedule_at(at, tagged(&sink, 0));
  q.schedule_delayed(SimTime::microseconds(10), tagged(&sink, 1));
  q.schedule_at(at, [&order] { order.push_back(2); });
  q.schedule_delayed(SimTime::microseconds(10), tagged(&sink, 3));
  q.run_until(SimTime::microseconds(4));
  ASSERT_TRUE(order.empty());
  q.schedule_delayed(SimTime::microseconds(6), tagged(&sink, 4));
  q.schedule_after(SimTime::microseconds(6), [&order] { order.push_back(5); });
  q.schedule_delayed(SimTime::microseconds(6), tagged(&sink, 6));
  q.schedule_at(at, tagged(&sink, 7));
  q.schedule_delayed(SimTime::microseconds(10), tagged(&sink, 8));  // at 14 us
  while (q.run_one()) {
    if (order.size() == 8) {
      EXPECT_EQ(q.now(), at);
    }
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(q.now().us(), 14.0);
  EXPECT_EQ(q.executed(), 9u);
}

TEST(EventQueue, LineOnlyQueueIsSeenByEveryQuery) {
  EventQueue q;
  std::vector<int> order;
  Recorder sink;
  sink.seen = &order;
  q.schedule_delayed(SimTime::microseconds(5), tagged(&sink, 1));
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.next_at().us(), 5.0);
  q.schedule_delayed(SimTime::microseconds(3), tagged(&sink, 2));
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_EQ(q.next_at().us(), 3.0);  // the shorter line's front comes first

  q.run_until(SimTime::microseconds(4));
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.next_at().us(), 5.0);
  EXPECT_EQ(q.now().us(), 4.0);

  q.run_until(SimTime::microseconds(10));
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.now().us(), 10.0);
  EXPECT_FALSE(q.run_one());
}

TEST(EventQueue, ArrivalOnlyQueueIsSeenByEveryQuery) {
  EventQueue q;
  std::vector<int> order;
  Recorder sink;
  sink.seen = &order;
  q.schedule_arrival(SimTime::microseconds(3), tagged(&sink, 1));
  q.schedule_arrival(SimTime::microseconds(3), tagged(&sink, 2));
  q.schedule_arrival(SimTime::microseconds(5), tagged(&sink, 3));
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.pending(), 3u);
  EXPECT_EQ(q.next_at().us(), 3.0);

  q.run_until(SimTime::microseconds(4));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.next_at().us(), 5.0);

  q.schedule_at(SimTime::microseconds(5), tagged(&sink, 4));  // ties after 3
  q.run_until(SimTime::microseconds(10));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_FALSE(q.run_one());
}

TEST(EventQueue, ZeroDelayLineRunsAfterEarlierScheduledEventsAtNow) {
  EventQueue q;
  std::vector<int> order;
  Recorder sink;
  sink.seen = &order;
  q.schedule_at(SimTime::microseconds(2), [&] {
    q.schedule_delayed(SimTime::zero(), tagged(&sink, 3));
    q.schedule_after(SimTime::zero(), tagged(&sink, 4));
  });
  q.schedule_at(SimTime::microseconds(2), tagged(&sink, 1));
  q.schedule_delayed(SimTime::microseconds(2), tagged(&sink, 2));
  while (q.run_one()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(q.now().us(), 2.0);
}

/// How Differential schedules its events whose times never go back.
enum class Arrivals {
  kNone,    ///< it schedules none
  kOnHeap,  ///< through schedule_at
  kOnLine,  ///< through schedule_arrival
};

/// Drives a queue with a seeded mix of schedule_at (past times included),
/// schedule_after and schedule_delayed calls, records and actions, from
/// the top level and from inside handlers, and records what was expected
/// of each event and what actually ran.  With arrivals, it also schedules
/// records at times that never go back, and every time falls on a 1 us
/// grid so that many events tie.
class Differential final : public EventSink {
 public:
  explicit Differential(std::uint64_t seed, Arrivals arrivals = Arrivals::kNone)
      : rng_(seed),
        arrivals_(arrivals),
        grain_(arrivals == Arrivals::kNone ? 1 : 1'000) {}

  void run(std::size_t total) {
    total_ = total;
    while (expected_.size() < total_) {
      const std::uint64_t burst = rng_.uniform_u64(1, 40);
      for (std::uint64_t i = 0; i < burst && expected_.size() < total_; ++i) {
        schedule_one();
      }
      q_.run_until(q_.now() + random_ns(60'000));
    }
    while (q_.run_one()) {
    }
  }

  /// (time, id) of every scheduled event, id = scheduling order.
  [[nodiscard]] const std::vector<std::pair<SimTime, std::uint64_t>>& expected() const {
    return expected_;
  }
  /// (time, id) of every event as it ran.
  [[nodiscard]] const std::vector<std::pair<SimTime, std::uint64_t>>& ran() const {
    return ran_;
  }

  /// Events scheduled at times that never go back.
  [[nodiscard]] std::size_t monotone() const noexcept { return monotone_; }

  void on_event(const EventRecord& ev) override { fired(ev.a); }

 private:
  /// Uniform in [0, max_ns], on the grid.
  SimTime random_ns(std::uint64_t max_ns) {
    const std::uint64_t ns = rng_.uniform_u64(0, max_ns);
    return SimTime::nanoseconds(static_cast<std::int64_t>(ns - ns % grain_));
  }

  void fired(std::uint64_t id) {
    ran_.emplace_back(q_.now(), id);
    const std::uint64_t children = rng_.uniform_u64(0, 2);
    for (std::uint64_t i = 0; i < children && expected_.size() < total_; ++i) {
      schedule_one();
    }
  }

  void schedule_one() {
    static constexpr std::int64_t kLines[] = {0, 3'000, 32'000, 55'000, 70'000};
    const std::uint64_t id = expected_.size();
    const SimTime now = q_.now();
    const bool action = rng_.chance(0.25);
    EventRecord rec;
    rec.sink = this;
    rec.a = id;
    SimTime at;
    switch (rng_.bounded(arrivals_ == Arrivals::kNone ? 3 : 4)) {
      case 0: {
        // Absolute time up to 20 us in the past (clamped to now) or 80 us ahead.
        at = now + random_ns(100'000) - SimTime::microseconds(20);
        if (action) {
          q_.schedule_at(at, [this, id] { fired(id); });
        } else {
          q_.schedule_at(at, rec);
        }
        at = std::max(at, now);
        break;
      }
      case 1: {
        const SimTime delay = random_ns(80'000);
        at = now + delay;
        if (action) {
          q_.schedule_after(delay, [this, id] { fired(id); });
        } else {
          q_.schedule_after(delay, rec);
        }
        break;
      }
      case 2: {
        const SimTime delay = SimTime::nanoseconds(kLines[rng_.bounded(std::size(kLines))]);
        at = now + delay;
        q_.schedule_delayed(delay, rec);
        break;
      }
      default: {
        // At or up to 2 us after both now and the previous such event.
        at = std::max(last_monotone_, now) +
             SimTime::nanoseconds(static_cast<std::int64_t>(grain_ * rng_.bounded(3)));
        last_monotone_ = at;
        ++monotone_;
        if (arrivals_ == Arrivals::kOnLine) {
          q_.schedule_arrival(at, rec);
        } else {
          q_.schedule_at(at, rec);
        }
        break;
      }
    }
    expected_.emplace_back(at, id);
  }

  EventQueue q_;
  Rng rng_;
  Arrivals arrivals_;
  std::uint64_t grain_;  ///< ns; every time is a multiple of it
  SimTime last_monotone_;
  std::size_t monotone_ = 0;
  std::size_t total_ = 0;
  std::vector<std::pair<SimTime, std::uint64_t>> expected_;
  std::vector<std::pair<SimTime, std::uint64_t>> ran_;
};

TEST(EventQueue, MixedSchedulingMatchesSortByTimeThenSequence) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    Differential diff(seed);
    diff.run(4000);
    auto sorted = diff.expected();
    ASSERT_EQ(sorted.size(), 4000u);
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(diff.ran(), sorted);
  }
}

TEST(EventQueue, ArrivalLineDispatchesLikeTheHeap) {
  // The same seeded schedule twice: once with every event through the
  // heap and the delay lines, once with the monotone ones on the arrival
  // line.  Both must dispatch in one order, the sort by (time, sequence).
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    Differential on_heap(seed, Arrivals::kOnHeap);
    on_heap.run(4000);
    Differential on_line(seed, Arrivals::kOnLine);
    on_line.run(4000);
    EXPECT_GT(on_line.monotone(), 500u);
    EXPECT_EQ(on_line.ran(), on_heap.ran());
    auto sorted = on_heap.expected();
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(on_line.ran(), sorted);
    // The grid makes equal-time ties common.
    std::size_t ties = 0;
    for (std::size_t i = 1; i < sorted.size(); ++i) {
      ties += sorted[i].first == sorted[i - 1].first ? 1 : 0;
    }
    EXPECT_GT(ties, 1000u);
  }
}

}  // namespace
}  // namespace pam
