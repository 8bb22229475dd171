// FCFS server tests: FIFO discipline, busy accounting, drop-tail, the
// utilisation arithmetic the device models rely on, and typed-record jobs
// in the growable waiting ring.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/fcfs_server.hpp"

namespace pam {
namespace {

using namespace pam::literals;

/// Appends each completed job's `a` word to `done`.
struct Recorder final : EventSink {
  std::vector<int> done;
  void on_event(const EventRecord& ev) override {
    done.push_back(static_cast<int>(ev.a));
  }
};

EventRecord job(Recorder& sink, int id) {
  EventRecord rec;
  rec.sink = &sink;
  rec.a = static_cast<std::uint64_t>(id);
  return rec;
}

TEST(FcfsServer, ServesSingleJob) {
  EventQueue q;
  FcfsServer srv{q, "dev", 16};
  bool done = false;
  ASSERT_TRUE(srv.submit(10_us, [&] { done = true; }));
  EXPECT_TRUE(srv.busy());
  while (q.run_one()) {
  }
  EXPECT_TRUE(done);
  EXPECT_FALSE(srv.busy());
  EXPECT_EQ(q.now().us(), 10.0);
  EXPECT_EQ(srv.jobs_completed(), 1u);
}

TEST(FcfsServer, FifoOrder) {
  EventQueue q;
  FcfsServer srv{q, "dev", 16};
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(srv.submit(1_us, [&order, i] { order.push_back(i); }));
  }
  while (q.run_one()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(q.now().us(), 5.0);
}

TEST(FcfsServer, QueueLengthTracksWaiting) {
  EventQueue q;
  FcfsServer srv{q, "dev", 16};
  (void)srv.submit(10_us, [] {});
  (void)srv.submit(10_us, [] {});
  (void)srv.submit(10_us, [] {});
  EXPECT_EQ(srv.queue_length(), 2u);  // one in service, two waiting
  EXPECT_EQ(srv.max_queue_seen(), 2u);
  while (q.run_one()) {
  }
  EXPECT_EQ(srv.queue_length(), 0u);
}

TEST(FcfsServer, DropTailRejectsBeyondCapacity) {
  EventQueue q;
  FcfsServer srv{q, "dev", 2};
  EXPECT_TRUE(srv.submit(10_us, [] {}));   // in service
  EXPECT_TRUE(srv.submit(10_us, [] {}));   // queued 1
  EXPECT_TRUE(srv.submit(10_us, [] {}));   // queued 2
  EXPECT_FALSE(srv.submit(10_us, [] {}));  // rejected
  EXPECT_EQ(srv.jobs_rejected(), 1u);
  while (q.run_one()) {
  }
  EXPECT_EQ(srv.jobs_completed(), 3u);
}

TEST(FcfsServer, BusyTimeAccumulates) {
  EventQueue q;
  FcfsServer srv{q, "dev", 16};
  (void)srv.submit(10_us, [] {});
  (void)srv.submit(20_us, [] {});
  while (q.run_one()) {
  }
  EXPECT_EQ(srv.busy_time().us(), 30.0);
  EXPECT_DOUBLE_EQ(srv.utilization(SimTime::microseconds(60)), 0.5);
}

TEST(FcfsServer, UtilizationZeroElapsed) {
  EventQueue q;
  FcfsServer srv{q, "dev", 16};
  EXPECT_DOUBLE_EQ(srv.utilization(SimTime::zero()), 0.0);
}

TEST(FcfsServer, CompletionMaySubmitMoreWork) {
  EventQueue q;
  FcfsServer srv{q, "dev", 16};
  int chained = 0;
  std::function<void()> chain = [&] {
    if (++chained < 5) {
      (void)srv.submit(2_us, chain);
    }
  };
  (void)srv.submit(2_us, chain);
  while (q.run_one()) {
  }
  EXPECT_EQ(chained, 5);
  EXPECT_EQ(q.now().us(), 10.0);
}

TEST(FcfsServer, ResubmissionLandsBehindQueuedJobs) {
  // Work submitted from a completion must not overtake already-queued jobs.
  EventQueue q;
  FcfsServer srv{q, "dev", 16};
  std::vector<char> order;
  (void)srv.submit(1_us, [&] {
    order.push_back('a');
    (void)srv.submit(1_us, [&] { order.push_back('c'); });
  });
  (void)srv.submit(1_us, [&] { order.push_back('b'); });
  while (q.run_one()) {
  }
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c'}));
}

TEST(FcfsServer, ZeroServiceJobsComplete) {
  EventQueue q;
  FcfsServer srv{q, "dev", 16};
  bool done = false;
  (void)srv.submit(SimTime::zero(), [&] { done = true; });
  while (q.run_one()) {
  }
  EXPECT_TRUE(done);
  EXPECT_EQ(q.now().ns(), 0);
}

TEST(FcfsServer, SaturationUtilizationIsOne) {
  EventQueue q;
  FcfsServer srv{q, "dev", 1024};
  // Offer exactly 100 us of work and run for 100 us.
  for (int i = 0; i < 100; ++i) {
    (void)srv.submit(1_us, [] {});
  }
  q.run_until(SimTime::microseconds(100));
  EXPECT_NEAR(srv.utilization(SimTime::microseconds(100)), 1.0, 1e-9);
}

TEST(FcfsServer, CompletionRunsAfterTheNextJobStarts) {
  // The next waiting job is already in service when a completion runs, so
  // work that completion submits queues behind everything waiting.
  EventQueue q;
  FcfsServer srv{q, "dev", 16};
  std::vector<char> order;
  (void)srv.submit(1_us, [&] {
    EXPECT_TRUE(srv.busy());              // 'b' started first
    EXPECT_EQ(srv.queue_length(), 1u);    // 'c' still waits
    order.push_back('a');
    (void)srv.submit(1_us, [&] { order.push_back('d'); });
    EXPECT_EQ(srv.queue_length(), 2u);    // 'd' behind 'c'
  });
  (void)srv.submit(1_us, [&] { order.push_back('b'); });
  (void)srv.submit(1_us, [&] { order.push_back('c'); });
  while (q.run_one()) {
  }
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c', 'd'}));
  EXPECT_EQ(q.now().us(), 4.0);
}

TEST(FcfsServer, TypedJobsKeepFifoOrderAcrossRingGrowth) {
  // 1000 is no power of two: the ring doubles from its first few slots up
  // to 1024 while the head has already moved, and FIFO order holds.
  constexpr std::size_t kCapacity = 1000;
  EventQueue q;
  FcfsServer srv{q, "dev", kCapacity};
  Recorder sink;
  int next = 0;
  std::vector<int> accepted;
  const auto submit = [&] {
    const int id = next++;
    if (srv.submit(1_us, job(sink, id))) {
      accepted.push_back(id);
      return true;
    }
    return false;
  };
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(submit());
  }
  EXPECT_EQ(srv.max_queue_seen(), 5u);
  ASSERT_TRUE(q.run_one());  // job 0 done, job 1 in service
  ASSERT_TRUE(q.run_one());  // job 1 done, job 2 in service
  EXPECT_EQ(srv.queue_length(), 3u);
  while (srv.queue_length() < kCapacity) {
    ASSERT_TRUE(submit());
    EXPECT_EQ(srv.max_queue_seen(), std::max<std::size_t>(5, srv.queue_length()));
  }
  EXPECT_FALSE(submit());  // drop-tail at capacity
  EXPECT_FALSE(submit());
  EXPECT_EQ(srv.jobs_rejected(), 2u);
  EXPECT_EQ(srv.queue_length(), kCapacity);
  while (q.run_one()) {
  }
  EXPECT_EQ(sink.done, accepted);
  EXPECT_EQ(srv.jobs_completed(), accepted.size());
  EXPECT_EQ(srv.queue_length(), 0u);
  EXPECT_EQ(srv.max_queue_seen(), kCapacity);
  EXPECT_FALSE(srv.busy());
}

TEST(FcfsServer, TypedAndErasedJobsShareOneQueue) {
  EventQueue q;
  FcfsServer srv{q, "dev", 2};
  Recorder sink;
  EXPECT_TRUE(srv.submit(1_us, job(sink, 1)));                        // in service
  EXPECT_TRUE(srv.submit(1_us, [&] { sink.done.push_back(2); }));    // queued 1
  EXPECT_TRUE(srv.submit(1_us, job(sink, 3)));                        // queued 2
  EXPECT_FALSE(srv.submit(1_us, [&] { sink.done.push_back(99); }));  // rejected
  EXPECT_FALSE(srv.submit(1_us, job(sink, 98)));                      // rejected
  EXPECT_EQ(srv.jobs_rejected(), 2u);
  while (q.run_one()) {
  }
  EXPECT_EQ(sink.done, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(srv.busy_time().us(), 3.0);
}

}  // namespace
}  // namespace pam
