#include "common/histogram.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace gossip {
namespace {

TEST(Histogram, StartsEmpty) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.count(5), 0u);
  EXPECT_EQ(h.max_value(), 0u);
}

TEST(Histogram, AddAndCount) {
  Histogram h;
  h.add(3);
  h.add(3);
  h.add(7, 5);
  EXPECT_EQ(h.total(), 7u);
  EXPECT_EQ(h.count(3), 2u);
  EXPECT_EQ(h.count(7), 5u);
  EXPECT_EQ(h.count(0), 0u);
  EXPECT_EQ(h.count(100), 0u);
  EXPECT_EQ(h.max_value(), 7u);
}

TEST(Histogram, MeanAndVariance) {
  Histogram h;
  // Values: 2, 2, 8 -> mean 4, variance ((2-4)^2*2 + (8-4)^2)/3 = 8.
  h.add(2, 2);
  h.add(8);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
  EXPECT_DOUBLE_EQ(h.variance(), 8.0);
  EXPECT_DOUBLE_EQ(h.stddev(), std::sqrt(8.0));
}

TEST(Histogram, SingleValueHasZeroVariance) {
  Histogram h;
  h.add(5, 10);
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);
  EXPECT_DOUBLE_EQ(h.variance(), 0.0);
}

TEST(Histogram, PmfNormalized) {
  Histogram h;
  h.add(0, 1);
  h.add(2, 3);
  const auto p = h.pmf();
  ASSERT_EQ(p.size(), 3u);
  EXPECT_DOUBLE_EQ(p[0], 0.25);
  EXPECT_DOUBLE_EQ(p[1], 0.0);
  EXPECT_DOUBLE_EQ(p[2], 0.75);
}

TEST(Histogram, Quantiles) {
  Histogram h;
  for (std::size_t v = 1; v <= 100; ++v) h.add(v);
  EXPECT_EQ(h.quantile(0.0), 1u);
  EXPECT_EQ(h.quantile(0.5), 50u);
  EXPECT_EQ(h.quantile(1.0), 100u);
  EXPECT_EQ(h.quantile(0.9), 90u);
}

TEST(Histogram, Merge) {
  Histogram a;
  a.add(1, 2);
  Histogram b;
  b.add(1, 3);
  b.add(9);
  a.merge(b);
  EXPECT_EQ(a.total(), 6u);
  EXPECT_EQ(a.count(1), 5u);
  EXPECT_EQ(a.count(9), 1u);
  EXPECT_EQ(a.max_value(), 9u);
}

TEST(Histogram, MergeIntoEmpty) {
  Histogram a;
  Histogram b;
  b.add(4, 2);
  a.merge(b);
  EXPECT_EQ(a.total(), 2u);
  EXPECT_EQ(a.count(4), 2u);
}

TEST(Histogram, Clear) {
  Histogram h;
  h.add(3, 4);
  h.clear();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(3), 0u);
}

TEST(Histogram, MaxValueIgnoresTrailingZeroBuckets) {
  Histogram h;
  h.add(10);
  h.add(3);
  EXPECT_EQ(h.max_value(), 10u);
}

}  // namespace
}  // namespace gossip
