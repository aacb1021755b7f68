#include "analysis/prediction.hpp"

#include <bit>
#include <cstdint>
#include <map>
#include <mutex>
#include <tuple>
#include <utility>

#include "analysis/independence.hpp"

namespace gossip::analysis {
namespace {

// Model-defining key: everything that changes the stationary answer.
// Doubles are compared by bit pattern so the key is a total order without
// epsilon ambiguity (callers pass exact literals, not computed noise).
using CacheKey = std::tuple<std::size_t,     // view_size
                            std::size_t,     // min_degree
                            std::uint64_t,   // loss bits
                            std::size_t,     // sum_degree_cap
                            std::uint64_t,   // fixed_sum_degree (+1, 0=none)
                            std::uint64_t>;  // delta bits

struct PredictionCache {
  std::mutex mutex;
  std::map<CacheKey, obs::TheoryPrediction> entries;
  std::size_t hits = 0;
  std::size_t misses = 0;
};

PredictionCache& cache() {
  static PredictionCache instance;
  return instance;
}

CacheKey make_key(const DegreeMcParams& params, double delta) {
  const std::uint64_t fixed =
      params.fixed_sum_degree
          ? static_cast<std::uint64_t>(*params.fixed_sum_degree) + 1
          : 0;
  return {params.view_size,
          params.min_degree,
          std::bit_cast<std::uint64_t>(params.loss),
          params.sum_degree_cap,
          fixed,
          std::bit_cast<std::uint64_t>(delta)};
}

obs::TheoryPrediction solve_prediction(const DegreeMcParams& params,
                                       double delta) {
  obs::TheoryPrediction pred;
  pred.loss = params.loss;
  pred.delta = delta;
  pred.view_size = params.view_size;
  pred.min_degree = params.min_degree;
  DegreeMcResult mc = solve_degree_mc(params);
  pred.out_pmf = std::move(mc.out_pmf);
  pred.in_pmf = std::move(mc.in_pmf);
  pred.expected_out = mc.expected_out;
  pred.expected_in = mc.expected_in;
  pred.duplication_probability = mc.duplication_probability;
  pred.deletion_probability = mc.deletion_probability;
  pred.alpha_lower_bound = independence_lower_bound_simple(params.loss, delta);
  return pred;
}

}  // namespace

obs::TheoryPrediction make_theory_prediction(const DegreeMcParams& params,
                                             double delta,
                                             PredictionSource /*source*/) {
  const CacheKey key = make_key(params, delta);
  auto& c = cache();
  {
    std::lock_guard<std::mutex> lock(c.mutex);
    if (const auto it = c.entries.find(key); it != c.entries.end()) {
      ++c.hits;
      return it->second;
    }
  }
  // Solve outside the lock: concurrent misses on the same key race to
  // insert the identical (deterministic) answer, which is harmless and
  // keeps slow exact solves from serializing unrelated lookups.
  obs::TheoryPrediction pred = solve_prediction(params, delta);
  std::lock_guard<std::mutex> lock(c.mutex);
  const auto [it, inserted] = c.entries.emplace(key, std::move(pred));
  ++c.misses;
  return it->second;
}

PredictionCacheStats prediction_cache_stats() {
  auto& c = cache();
  std::lock_guard<std::mutex> lock(c.mutex);
  return {c.hits, c.misses, c.entries.size()};
}

void clear_prediction_cache() {
  auto& c = cache();
  std::lock_guard<std::mutex> lock(c.mutex);
  c.entries.clear();
  c.hits = 0;
  c.misses = 0;
}

}  // namespace gossip::analysis
