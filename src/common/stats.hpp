// Statistical utilities: running moments, distribution distances, and
// goodness-of-fit tests used to compare measured distributions against the
// paper's analytical predictions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace gossip {

// Welford's online algorithm for mean / variance; numerically stable.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const { return mean_; }
  // Population variance (divides by n).
  [[nodiscard]] double variance() const;
  // Sample variance (divides by n - 1); 0 when fewer than 2 observations.
  [[nodiscard]] double sample_variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

  void merge(const RunningStats& other);

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Total variation distance between two pmfs: (1/2) * sum |p_i - q_i|.
// Vectors of different lengths are zero-padded.
[[nodiscard]] double total_variation_distance(std::span<const double> p,
                                              std::span<const double> q);

// L1 distance: sum |p_i - q_i|.
[[nodiscard]] double l1_distance(std::span<const double> p,
                                 std::span<const double> q);

// Pearson's chi-square statistic of observed counts against expected
// probabilities. Buckets with expected probability 0 must have 0 observed
// count (asserted). Returns the statistic; degrees of freedom is
// (#buckets with nonzero expectation - 1).
[[nodiscard]] double chi_square_statistic(std::span<const std::uint64_t> observed,
                                          std::span<const double> expected_probs);

// Upper-tail probability of the chi-square distribution with k degrees of
// freedom evaluated at x: P(X >= x). Computed via the regularized upper
// incomplete gamma function Q(k/2, x/2).
[[nodiscard]] double chi_square_upper_tail(double x, double degrees_of_freedom);

// Mean and (population) variance of a pmf over {0, 1, 2, ...}.
struct PmfMoments {
  double mean = 0.0;
  double variance = 0.0;
};
[[nodiscard]] PmfMoments pmf_moments(std::span<const double> p);

}  // namespace gossip
