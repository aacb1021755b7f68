#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace gossip {
namespace {

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_NEAR(s.sample_variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.sample_variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10.0;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  RunningStats target;
  target.merge(a);
  EXPECT_EQ(target.count(), 1u);
  EXPECT_DOUBLE_EQ(target.mean(), 1.0);
}

TEST(Distances, TotalVariationBasics) {
  const std::vector<double> p = {0.5, 0.5};
  const std::vector<double> q = {1.0, 0.0};
  EXPECT_DOUBLE_EQ(total_variation_distance(p, p), 0.0);
  EXPECT_DOUBLE_EQ(total_variation_distance(p, q), 0.5);
  EXPECT_DOUBLE_EQ(l1_distance(p, q), 1.0);
}

TEST(Distances, HandlesDifferentLengths) {
  const std::vector<double> p = {1.0};
  const std::vector<double> q = {0.5, 0.5};
  EXPECT_DOUBLE_EQ(total_variation_distance(p, q), 0.5);
}

TEST(ChiSquare, StatisticAgainstUniform) {
  const std::vector<std::uint64_t> observed = {25, 25, 25, 25};
  const std::vector<double> expected = {0.25, 0.25, 0.25, 0.25};
  EXPECT_DOUBLE_EQ(chi_square_statistic(observed, expected), 0.0);

  const std::vector<std::uint64_t> skewed = {40, 20, 20, 20};
  // total=100, expected 25 each: (15^2 + 3*5^2)/25 = (225+75)/25 = 12.
  EXPECT_DOUBLE_EQ(chi_square_statistic(skewed, expected), 12.0);
}

TEST(ChiSquare, UpperTailKnownValues) {
  // For 1 dof, P(X >= 3.841) ≈ 0.05.
  EXPECT_NEAR(chi_square_upper_tail(3.841, 1.0), 0.05, 0.001);
  // For 2 dof the distribution is Exp(1/2): P(X >= x) = exp(-x/2).
  EXPECT_NEAR(chi_square_upper_tail(4.0, 2.0), std::exp(-2.0), 1e-9);
  EXPECT_DOUBLE_EQ(chi_square_upper_tail(0.0, 5.0), 1.0);
  EXPECT_NEAR(chi_square_upper_tail(1000.0, 5.0), 0.0, 1e-12);
}

TEST(ChiSquare, UpperTailMonotoneInX) {
  double prev = 1.0;
  for (double x = 0.5; x < 30.0; x += 0.5) {
    const double tail = chi_square_upper_tail(x, 7.0);
    EXPECT_LE(tail, prev + 1e-12);
    prev = tail;
  }
}

TEST(PmfMomentsTest, MatchesDirectComputation) {
  const std::vector<double> p = {0.2, 0.0, 0.8};  // mean 1.6, var 0.64
  const auto m = pmf_moments(p);
  EXPECT_NEAR(m.mean, 1.6, 1e-12);
  EXPECT_NEAR(m.variance, 0.2 * 1.6 * 1.6 + 0.8 * 0.4 * 0.4, 1e-12);
}

}  // namespace
}  // namespace gossip
