// Integer-bucket histograms and empirical probability mass functions.
//
// These are the primary measurement containers: degree distributions,
// occupancy counts, and survival curves are all accumulated here and then
// compared against analytical predictions with the metrics in stats.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gossip {

// Counts occurrences of non-negative integer values. Grows on demand.
class Histogram {
 public:
  Histogram() = default;

  void add(std::size_t value, std::uint64_t count = 1);

  // Total number of recorded observations.
  [[nodiscard]] std::uint64_t total() const { return total_; }

  // Count in bucket `value` (0 if never recorded).
  [[nodiscard]] std::uint64_t count(std::size_t value) const;

  // Largest value with a nonzero count; 0 for an empty histogram.
  [[nodiscard]] std::size_t max_value() const;

  [[nodiscard]] bool empty() const { return total_ == 0; }

  // Empirical mean / variance / standard deviation of the recorded values.
  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;

  // Normalized probability mass function p[v] = count(v) / total().
  // Returned vector has size max_value() + 1. Requires a nonempty histogram.
  [[nodiscard]] std::vector<double> pmf() const;

  // Smallest value v such that the cumulative mass through v is >= q.
  // Requires a nonempty histogram and q in [0, 1].
  [[nodiscard]] std::size_t quantile(double q) const;

  void merge(const Histogram& other);
  void clear();

  // Raw counts, indexed by value (size max_value() + 1 or smaller).
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return counts_;
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace gossip
