// Tests for the measurement primitives: running moments, quantile
// reservoirs and the latency recorder.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

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

// The interpolated quantile of a sorted copy, as the reservoir defines it.
double sorted_quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

TEST(QuantileReservoir, SelectionMatchesSortedReference) {
  // Mixed query order (repeats included) over few distinct values, so many
  // order statistics tie; queries between adds must see the new samples.
  const std::vector<double> qs = {0.99, 0.0, 0.5, 1.0, 0.25, 0.9, 0.5,
                                  0.001, 0.75, 0.999, 0.1, 0.0};
  QuantileReservoir reservoir;
  std::vector<double> added;
  std::uint64_t state = 7;
  for (const std::size_t batch : {1, 1, 5, 200, 3000}) {
    for (std::size_t i = 0; i < batch; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const double x = static_cast<double>((state >> 33) % 40) * 1.5;
      reservoir.add(x);
      added.push_back(x);
    }
    for (const double q : qs) {
      EXPECT_EQ(reservoir.quantile(q), sorted_quantile(added, q))
          << "q=" << q << " over " << added.size() << " samples";
    }
  }
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
