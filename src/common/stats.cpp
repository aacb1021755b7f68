#include "common/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace gossip {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return count_ > 0 ? m2_ / static_cast<double>(count_) : 0.0;
}

double RunningStats::sample_variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double total_variation_distance(std::span<const double> p,
                                std::span<const double> q) {
  return 0.5 * l1_distance(p, q);
}

double l1_distance(std::span<const double> p, std::span<const double> q) {
  const std::size_t n = std::max(p.size(), q.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double pi = i < p.size() ? p[i] : 0.0;
    const double qi = i < q.size() ? q[i] : 0.0;
    sum += std::abs(pi - qi);
  }
  return sum;
}

double chi_square_statistic(std::span<const std::uint64_t> observed,
                            std::span<const double> expected_probs) {
  assert(observed.size() == expected_probs.size());
  std::uint64_t total = 0;
  for (const auto c : observed) total += c;
  double stat = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double expected = expected_probs[i] * static_cast<double>(total);
    if (expected <= 0.0) {
      assert(observed[i] == 0);
      continue;
    }
    const double d = static_cast<double>(observed[i]) - expected;
    stat += d * d / expected;
  }
  return stat;
}

namespace {

// Regularized upper incomplete gamma function Q(a, x), a > 0, x >= 0.
// Series expansion for x < a + 1, continued fraction otherwise
// (Numerical Recipes style, relative accuracy ~1e-12).
double upper_regularized_gamma(double a, double x) {
  assert(a > 0.0);
  assert(x >= 0.0);
  if (x == 0.0) return 1.0;
  const double log_gamma_a = std::lgamma(a);
  if (x < a + 1.0) {
    // P(a, x) by series; Q = 1 - P.
    double term = 1.0 / a;
    double sum = term;
    double ap = a;
    for (int i = 0; i < 1000; ++i) {
      ap += 1.0;
      term *= x / ap;
      sum += term;
      if (std::abs(term) < std::abs(sum) * 1e-15) break;
    }
    const double p = sum * std::exp(-x + a * std::log(x) - log_gamma_a);
    return 1.0 - p;
  }
  // Q(a, x) by Lentz's continued fraction.
  const double tiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / tiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 1000; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < tiny) d = tiny;
    c = b + an / c;
    if (std::abs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < 1e-15) break;
  }
  return std::exp(-x + a * std::log(x) - log_gamma_a) * h;
}

}  // namespace

double chi_square_upper_tail(double x, double degrees_of_freedom) {
  assert(degrees_of_freedom > 0.0);
  if (x <= 0.0) return 1.0;
  return upper_regularized_gamma(degrees_of_freedom / 2.0, x / 2.0);
}

PmfMoments pmf_moments(std::span<const double> p) {
  PmfMoments m;
  for (std::size_t i = 0; i < p.size(); ++i) {
    m.mean += static_cast<double>(i) * p[i];
  }
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double d = static_cast<double>(i) - m.mean;
    m.variance += d * d * p[i];
  }
  return m;
}

}  // namespace gossip
