// Deterministic pseudo-random number generation for simulations.
//
// All stochastic components in this library draw randomness through `Rng`, a
// xoshiro256** generator seeded via splitmix64. Results therefore do not
// depend on standard-library distribution internals and are reproducible
// across platforms given the same seed.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

namespace gossip {

namespace detail {
constexpr std::uint64_t rotl64(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace detail

// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm).
// Satisfies the C++ UniformRandomBitGenerator requirements.
//
// The single-step draws (operator(), uniform, bernoulli, distinct_pair) are
// defined inline in this header: the flat S&F hot path makes several draws
// per action and the build does not use LTO, so an out-of-line definition
// would cost a cross-TU call per draw.
class Rng {
 public:
  using result_type = std::uint64_t;

  // Seeds the full 256-bit state from a single 64-bit seed using splitmix64,
  // as recommended by the xoshiro authors.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = detail::rotl64(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = detail::rotl64(state_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound). `bound` must be positive. Uses Lemire's
  // nearly-divisionless rejection method, so the result is exactly uniform.
  std::uint64_t uniform(std::uint64_t bound) {
    assert(bound > 0);
    // Lemire's method: multiply-shift with rejection of the biased low
    // range.
    __uint128_t m = static_cast<__uint128_t>((*this)()) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        m = static_cast<__uint128_t>((*this)()) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  // Uniform double in [0, 1) with 53 bits of precision.
  double uniform_double() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  // Bernoulli trial: true with probability p (clamped to [0, 1]).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform_double() < p;
  }

  // Pareto(minimum, shape) variate: minimum * U^(-1/shape), U ~ (0, 1].
  // Heavy-tailed; mean exists only for shape > 1. Requires minimum > 0,
  // shape > 0.
  double pareto(double minimum, double shape);

  // Two distinct indices drawn uniformly at random from [0, count).
  // Requires count >= 2. This is the slot-pair selection primitive of the
  // S&F protocol (Fig 5.1, line 2).
  std::pair<std::size_t, std::size_t> distinct_pair(std::size_t count) {
    assert(count >= 2);
    const std::size_t first = uniform(count);
    std::size_t second = uniform(count - 1);
    if (second >= first) ++second;
    return {first, second};
  }

  // k distinct indices sampled uniformly from [0, count) (order random).
  // Requires k <= count. O(k) expected time via partial Fisher-Yates on a
  // sparse map for small k, or full shuffle when k is close to count.
  std::vector<std::size_t> sample_without_replacement(std::size_t count,
                                                      std::size_t k);

  // Fisher-Yates shuffle of an index permutation [0, count).
  std::vector<std::size_t> permutation(std::size_t count);

  // Writes a uniformly random permutation of [0, out.size()) into `out`:
  // the identity, then Fisher-Yates drawing uniform(i) for i = size .. 2.
  // permutation() and permutation_regular share this routine, so equal
  // generator states give equal permutations whatever the index type.
  // Index must hold out.size() - 1.
  template <typename Index>
  void fill_permutation(std::span<Index> out) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<Index>(i);
    }
    for (std::size_t i = out.size(); i > 1; --i) {
      std::swap(out[i - 1], out[uniform(i)]);
    }
  }

  // Derives an independent child generator; used to give each simulated
  // node / subsystem its own stream.
  Rng split();

  // Deterministic independent stream derivation: the generator for
  // (root_seed, stream_index) depends only on those two values, not on any
  // generator state. Used to give each shard of a parallel simulation its
  // own decorrelated stream so results are reproducible regardless of
  // thread scheduling.
  [[nodiscard]] static Rng stream(std::uint64_t root_seed,
                                  std::uint64_t stream_index);

 private:
  std::array<std::uint64_t, 4> state_;
};

// splitmix64 step, exposed for seeding utilities and tests.
std::uint64_t splitmix64_next(std::uint64_t& state);

}  // namespace gossip
