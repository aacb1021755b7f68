#include "common/histogram.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace gossip {

void Histogram::add(std::size_t value, std::uint64_t count) {
  if (value >= counts_.size()) counts_.resize(value + 1, 0);
  counts_[value] += count;
  total_ += count;
}

std::uint64_t Histogram::count(std::size_t value) const {
  return value < counts_.size() ? counts_[value] : 0;
}

std::size_t Histogram::max_value() const {
  for (std::size_t i = counts_.size(); i > 0; --i) {
    if (counts_[i - 1] != 0) return i - 1;
  }
  return 0;
}

double Histogram::mean() const {
  if (total_ == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t v = 0; v < counts_.size(); ++v) {
    sum += static_cast<double>(v) * static_cast<double>(counts_[v]);
  }
  return sum / static_cast<double>(total_);
}

double Histogram::variance() const {
  if (total_ == 0) return 0.0;
  const double mu = mean();
  double sum = 0.0;
  for (std::size_t v = 0; v < counts_.size(); ++v) {
    const double d = static_cast<double>(v) - mu;
    sum += d * d * static_cast<double>(counts_[v]);
  }
  return sum / static_cast<double>(total_);
}

double Histogram::stddev() const { return std::sqrt(variance()); }

std::vector<double> Histogram::pmf() const {
  assert(total_ > 0);
  std::vector<double> p(max_value() + 1, 0.0);
  for (std::size_t v = 0; v < p.size(); ++v) {
    p[v] = static_cast<double>(count(v)) / static_cast<double>(total_);
  }
  return p;
}

std::size_t Histogram::quantile(double q) const {
  assert(total_ > 0);
  assert(q >= 0.0 && q <= 1.0);
  const double target = q * static_cast<double>(total_);
  double cum = 0.0;
  for (std::size_t v = 0; v < counts_.size(); ++v) {
    if (counts_[v] == 0) continue;  // quantiles are recorded values
    cum += static_cast<double>(counts_[v]);
    if (cum >= target) return v;
  }
  return max_value();
}

void Histogram::merge(const Histogram& other) {
  if (other.counts_.size() > counts_.size()) {
    counts_.resize(other.counts_.size(), 0);
  }
  for (std::size_t v = 0; v < other.counts_.size(); ++v) {
    counts_[v] += other.counts_[v];
  }
  total_ += other.total_;
}

void Histogram::clear() {
  counts_.clear();
  total_ = 0;
}

}  // namespace gossip
