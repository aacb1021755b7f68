// Degree and structure statistics of membership graphs.
#pragma once

#include <cstddef>

#include "common/histogram.hpp"
#include "graph/digraph.hpp"

namespace gossip {

struct DegreeSummary {
  double out_mean = 0.0;
  double out_variance = 0.0;
  double in_mean = 0.0;
  double in_variance = 0.0;
  std::size_t out_min = 0;
  std::size_t out_max = 0;
  std::size_t in_min = 0;
  std::size_t in_max = 0;
};

[[nodiscard]] DegreeSummary degree_summary(const Digraph& g);

// Histogram of out-degrees over all vertices.
[[nodiscard]] Histogram out_degree_histogram(const Digraph& g);

// Histogram of in-degrees over all vertices.
[[nodiscard]] Histogram in_degree_histogram(const Digraph& g);

// Histogram of sum degrees ds(u) = d(u) + 2*din(u) (Definition 6.1).
[[nodiscard]] Histogram sum_degree_histogram(const Digraph& g);

}  // namespace gossip
