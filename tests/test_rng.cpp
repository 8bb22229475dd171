// Tests for the deterministic RNG: reproducibility first (the whole
// evaluation depends on it), then statistical sanity of each distribution.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace pam {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next_u64() == b.next_u64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ZeroSeedIsValid) {
  Rng r{0};
  // Must not get stuck on the all-zero degenerate state.
  EXPECT_NE(r.next_u64() | r.next_u64() | r.next_u64(), 0u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r{7};
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(Rng, NextDoubleMeanNearHalf) {
  Rng r{11};
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    sum += r.next_double();
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, BoundedStaysInRange) {
  Rng r{13};
  for (int i = 0; i < 10000; ++i) {
    ASSERT_LT(r.bounded(17), 17u);
  }
}

TEST(Rng, BoundedCoversAllValues) {
  Rng r{17};
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) {
    ++seen[r.bounded(10)];
  }
  for (int count : seen) {
    EXPECT_GT(count, 800);  // roughly uniform; each bucket expects ~1000
    EXPECT_LT(count, 1200);
  }
}

TEST(Rng, UniformU64Inclusive) {
  Rng r{19};
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const auto v = r.uniform_u64(5, 8);
    ASSERT_GE(v, 5u);
    ASSERT_LE(v, 8u);
    saw_lo |= v == 5;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformDoubleRange) {
  Rng r{23};
  for (int i = 0; i < 10000; ++i) {
    const double x = r.uniform(-2.0, 3.0);
    ASSERT_GE(x, -2.0);
    ASSERT_LT(x, 3.0);
  }
}

TEST(Rng, ExponentialMean) {
  Rng r{29};
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    sum += r.exponential(42.0);
  }
  EXPECT_NEAR(sum / kN, 42.0, 0.5);
}

TEST(Rng, ExponentialNonNegative) {
  Rng r{31};
  for (int i = 0; i < 10000; ++i) {
    ASSERT_GE(r.exponential(1.0), 0.0);
  }
}

TEST(Rng, ChanceProbability) {
  Rng r{37};
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    hits += r.chance(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng r{41};
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double x = r.normal(10.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Rng, ParetoLowerBound) {
  Rng r{43};
  for (int i = 0; i < 10000; ++i) {
    ASSERT_GE(r.pareto(2.0, 1.5), 2.0);
  }
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng r{47};
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) {
    ++counts[r.zipf(100, 1.2)];
  }
  // Rank 0 must dominate rank 50 heavily under s=1.2.
  EXPECT_GT(counts[0], counts[50] * 10);
  // Every sample in range.
  int total = 0;
  for (int c : counts) total += c;
  EXPECT_EQ(total, 100000);
}

TEST(Rng, ZipfZeroSkewIsUniformish) {
  Rng r{53};
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) {
    ++counts[r.zipf(10, 1e-9)];
  }
  for (int c : counts) {
    EXPECT_GT(c, 3500);
    EXPECT_LT(c, 6500);
  }
}

/// What a Zipf draw returned before the guide table: a binary search of
/// the CDF.
std::size_t lower_bound_rank(const ZipfTable& table, double u) {
  const auto& cdf = table.cdf();
  return static_cast<std::size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                                  cdf.begin());
}

TEST(ZipfTable, GuideDrawEqualsLowerBound) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{100}, std::size_t{256}}) {
    for (const double s : {1.1, 1.2, 1e-9}) {
      const ZipfTable table{n, s};
      ASSERT_EQ(table.n(), n);
      ASSERT_EQ(table.cdf().back(), 1.0);
      std::vector<double> us{0.0, 0x1.0p-53, 1.0 - 0x1.0p-53};
      for (const double c : table.cdf()) {
        // On each CDF point and one ulp either side of it.
        for (const double u : {std::nextafter(c, 0.0), c, std::nextafter(c, 2.0)}) {
          if (u < 1.0) {
            us.push_back(u);
          }
        }
      }
      Rng r{61};
      for (int i = 0; i < 20000; ++i) {
        us.push_back(r.next_double());
      }
      for (const double u : us) {
        ASSERT_EQ(table.rank(u), lower_bound_rank(table, u))
            << "n=" << n << " s=" << s << " u=" << u;
      }
    }
  }
}

TEST(ZipfTable, SharedTableDrawsTheSameStream) {
  // Rng::zipf(n, s) and a draw from a table built elsewhere consume the
  // same next_double() and give the same rank.
  const ZipfTable table{256, 1.1};
  Rng a{67};
  Rng b{67};
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(a.zipf(256, 1.1), b.zipf(table));
  }
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SplitStreamsDiffer) {
  Rng parent{59};
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (parent.next_u64() == child.next_u64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, StateSnapshotRestoresStream) {
  Rng r{61};
  (void)r.next_u64();
  const auto saved = r.state();
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < 16; ++i) {
    expected.push_back(r.next_u64());
  }
  r.restore(saved);
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(r.next_u64(), expected[static_cast<std::size_t>(i)]);
  }
}

}  // namespace
}  // namespace pam
