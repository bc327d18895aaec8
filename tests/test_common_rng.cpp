// Unit and property tests for the deterministic RNG layer.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "common/error.h"
#include "common/rng.h"

namespace vcmr::common {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.uniform_int(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values reachable
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, UniformIntSpansWiderThanInt64) {
  // hi - lo does not fit int64 here; the draw must stay in range.
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  Rng rng(23);
  bool negative = false, positive = false;
  for (int i = 0; i < 200; ++i) {
    rng.uniform_int(kMin, kMax);
    const std::int64_t v = rng.uniform_int(kMin + 1, kMax);
    EXPECT_GE(v, kMin + 1);
    (v < 0 ? negative : positive) = true;
  }
  EXPECT_TRUE(negative && positive);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(5, 4), Error);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(19);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.15);
}

TEST(Rng, ExponentialAlwaysPositive) {
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) ASSERT_GE(rng.exponential(1.0), 0.0);
}

TEST(Rng, NormalMoments) {
  Rng rng(29);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, ParetoAboveScale) {
  Rng rng(31);
  for (int i = 0; i < 10000; ++i) ASSERT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(37);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceRateRoughlyP) {
  Rng rng(41);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ZipfInRange) {
  Rng rng(43);
  for (int i = 0; i < 20000; ++i) {
    const std::int64_t r = rng.zipf(100, 1.1);
    ASSERT_GE(r, 1);
    ASSERT_LE(r, 100);
  }
}

TEST(Rng, ZipfRankOneMostFrequent) {
  Rng rng(47);
  std::vector<int> counts(11, 0);
  for (int i = 0; i < 100000; ++i) {
    const std::int64_t r = rng.zipf(10, 1.2);
    ++counts[static_cast<std::size_t>(r)];
  }
  // Monotone-ish decay: rank 1 clearly beats rank 2, which beats rank 5.
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[5]);
  EXPECT_GT(counts[1], 2 * counts[5]);
}

TEST(Rng, ZipfSingleElement) {
  Rng rng(53);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.zipf(1, 1.0), 1);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(59);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto sorted = v;
  rng.shuffle(v);
  auto resorted = v;
  std::sort(resorted.begin(), resorted.end());
  EXPECT_EQ(resorted, sorted);
}

TEST(RngStreamFactory, SameNameSameStream) {
  RngStreamFactory f(99);
  Rng a = f.stream("net.fail");
  Rng b = f.stream("net.fail");
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngStreamFactory, DifferentNamesIndependent) {
  RngStreamFactory f(99);
  Rng a = f.stream("alpha");
  Rng b = f.stream("beta");
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngStreamFactory, IndexSeparatesStreams) {
  RngStreamFactory f(7);
  Rng a = f.stream("client", 0);
  Rng b = f.stream("client", 1);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(RngStreamFactory, RootSeedSeparates) {
  RngStreamFactory f1(1), f2(2);
  EXPECT_NE(f1.stream("x").next_u64(), f2.stream("x").next_u64());
}

// Property sweep: distribution parameters hold across seeds.
class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformIntUnbiasedOverSmallRange) {
  Rng rng(GetParam());
  std::vector<int> counts(4, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<std::size_t>(rng.uniform_int(0, 3))];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.25, 0.02);
  }
}

TEST_P(RngSeedSweep, ZipfNeverEscapesRange) {
  Rng rng(GetParam());
  for (int i = 0; i < 5000; ++i) {
    const auto r = rng.zipf(1000, 0.9);
    ASSERT_GE(r, 1);
    ASSERT_LE(r, 1000);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(1, 2, 3, 42, 1000, 99999));

}  // namespace
}  // namespace vcmr::common
