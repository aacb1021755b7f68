#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace gossip {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, SplitmixKnownValue) {
  // Reference value of splitmix64 for state 0 (first output).
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64_next(state), 0xE220A8397B1DCDAFULL);
}

TEST(Rng, UniformWithinBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.uniform(bound), bound);
    }
  }
}

TEST(Rng, UniformBoundOneAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.uniform(1), 0u);
  }
}

TEST(Rng, UniformIsApproximatelyUniform) {
  Rng rng(99);
  constexpr std::uint64_t kBuckets = 10;
  constexpr int kSamples = 100'000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng.uniform(kBuckets)];
  }
  // Each bucket should hold ~10000; allow 5 sigma (~sqrt(9000) ~ 95).
  for (const int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, 500);
  }
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.uniform_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformDoubleMeanIsHalf) {
  Rng rng(13);
  double sum = 0.0;
  constexpr int kSamples = 200'000;
  for (int i = 0; i < kSamples; ++i) sum += rng.uniform_double();
  EXPECT_NEAR(sum / kSamples, 0.5, 0.005);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  constexpr int kSamples = 100'000;
  for (int i = 0; i < kSamples; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.01);
}

TEST(Rng, DistinctPairAlwaysDistinctAndInRange) {
  Rng rng(23);
  for (std::size_t count : {2u, 3u, 6u, 40u}) {
    for (int i = 0; i < 1000; ++i) {
      const auto [a, b] = rng.distinct_pair(count);
      EXPECT_NE(a, b);
      EXPECT_LT(a, count);
      EXPECT_LT(b, count);
    }
  }
}

TEST(Rng, DistinctPairUniformOverOrderedPairs) {
  // Proposition 5.2 relies on every (ordered) slot pair being equally
  // likely.
  Rng rng(29);
  constexpr std::size_t kCount = 4;
  constexpr int kSamples = 120'000;
  std::vector<int> counts(kCount * kCount, 0);
  for (int i = 0; i < kSamples; ++i) {
    const auto [a, b] = rng.distinct_pair(kCount);
    ++counts[a * kCount + b];
  }
  const double expected = static_cast<double>(kSamples) / (kCount * (kCount - 1));
  for (std::size_t a = 0; a < kCount; ++a) {
    for (std::size_t b = 0; b < kCount; ++b) {
      if (a == b) {
        EXPECT_EQ(counts[a * kCount + b], 0);
      } else {
        EXPECT_NEAR(counts[a * kCount + b], expected, expected * 0.06);
      }
    }
  }
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(31);
  for (std::size_t count : {5u, 50u, 500u}) {
    for (std::size_t k : {0u, 1u, 3u, 5u}) {
      if (k > count) continue;
      const auto sample = rng.sample_without_replacement(count, k);
      EXPECT_EQ(sample.size(), k);
      std::set<std::size_t> unique(sample.begin(), sample.end());
      EXPECT_EQ(unique.size(), k);
      for (const auto v : sample) EXPECT_LT(v, count);
    }
  }
}

TEST(Rng, SampleWithoutReplacementFullRangeIsPermutation) {
  Rng rng(37);
  const auto sample = rng.sample_without_replacement(20, 20);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
}

TEST(Rng, SampleWithoutReplacementUniformMembership) {
  Rng rng(41);
  constexpr std::size_t kCount = 10;
  constexpr std::size_t kTake = 3;
  constexpr int kSamples = 100'000;
  std::vector<int> hits(kCount, 0);
  for (int i = 0; i < kSamples; ++i) {
    for (const auto v : rng.sample_without_replacement(kCount, kTake)) {
      ++hits[v];
    }
  }
  const double expected = static_cast<double>(kSamples) * kTake / kCount;
  for (const int h : hits) {
    EXPECT_NEAR(h, expected, expected * 0.05);
  }
}

TEST(Rng, PermutationIsValid) {
  Rng rng(43);
  for (std::size_t n : {0u, 1u, 2u, 17u, 100u}) {
    const auto perm = rng.permutation(n);
    EXPECT_EQ(perm.size(), n);
    std::vector<bool> seen(n, false);
    for (const auto v : perm) {
      ASSERT_LT(v, n);
      EXPECT_FALSE(seen[v]);
      seen[v] = true;
    }
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(47);
  Rng child = parent.split();
  // The child stream should differ from the parent's continued stream.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent() == child()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

}  // namespace
}  // namespace gossip
