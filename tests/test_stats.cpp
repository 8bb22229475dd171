// Tests for the measurement primitives: running moments, quantile
// reservoirs and the latency recorder.

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.hpp"

namespace pam {
namespace {

using namespace pam::literals;

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MeanMinMax) {
  RunningStats s;
  for (const double x : {3.0, 1.0, 4.0, 1.0, 5.0}) {
    s.add(x);
  }
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.8);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 14.0);
}

TEST(RunningStats, VarianceMatchesDirectFormula) {
  RunningStats s;
  const double xs[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (const double x : xs) {
    s.add(x);
  }
  EXPECT_NEAR(s.variance(), 4.0, 1e-12);  // classic example: sigma^2 = 4
  EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10.0;
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(QuantileReservoir, ExactBelowCapacity) {
  QuantileReservoir q{1024};
  for (int i = 1; i <= 100; ++i) {
    q.add(i);
  }
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 100.0);
  EXPECT_NEAR(q.median(), 50.5, 0.5);
  EXPECT_NEAR(q.quantile(0.99), 99.0, 1.1);
}

TEST(QuantileReservoir, EmptyReturnsZero) {
  QuantileReservoir q;
  EXPECT_DOUBLE_EQ(q.quantile(0.5), 0.0);
  EXPECT_TRUE(q.empty());
}

TEST(QuantileReservoir, ReservoirApproximatesUnderOverflow) {
  QuantileReservoir q{512, 99};
  for (int i = 0; i < 100000; ++i) {
    q.add(i % 1000);  // uniform over [0, 1000)
  }
  EXPECT_EQ(q.count(), 100000u);
  EXPECT_NEAR(q.median(), 500.0, 80.0);
  EXPECT_NEAR(q.quantile(0.9), 900.0, 80.0);
}

TEST(LatencyRecorder, RecordsSimTimes) {
  LatencyRecorder rec;
  rec.record(SimTime::microseconds(10));
  rec.record(SimTime::microseconds(20));
  rec.record(SimTime::microseconds(30));
  EXPECT_EQ(rec.count(), 3u);
  EXPECT_EQ(rec.mean().us(), 20.0);
  EXPECT_EQ(rec.min().us(), 10.0);
  EXPECT_EQ(rec.max().us(), 30.0);
  EXPECT_NEAR(rec.quantile(0.5).us(), 20.0, 0.01);
  EXPECT_FALSE(rec.summary().empty());
}

}  // namespace
}  // namespace pam
