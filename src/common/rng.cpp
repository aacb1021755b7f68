#include "common/rng.hpp"

#include <algorithm>
#include <cmath>
#include <cassert>
#include <unordered_map>

namespace gossip {

using detail::rotl64;

std::uint64_t splitmix64_next(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64_next(sm);
  // A zero state would be a fixed point of xoshiro; splitmix64 cannot emit
  // four zero words in a row, but guard anyway.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

double Rng::pareto(double minimum, double shape) {
  assert(minimum > 0.0);
  assert(shape > 0.0);
  // 1 - uniform_double() lies in (0, 1]; no log/pow domain issues.
  const double u = 1.0 - uniform_double();
  return minimum * std::pow(u, -1.0 / shape);
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t count,
                                                         std::size_t k) {
  assert(k <= count);
  std::vector<std::size_t> out;
  out.reserve(k);
  if (k * 3 >= count) {
    // Dense case: partial Fisher-Yates over an explicit permutation.
    std::vector<std::size_t> pool(count);
    for (std::size_t i = 0; i < count; ++i) pool[i] = i;
    for (std::size_t i = 0; i < k; ++i) {
      std::swap(pool[i], pool[i + uniform(count - i)]);
      out.push_back(pool[i]);
    }
    return out;
  }
  // Sparse case: virtual Fisher-Yates using a displacement map.
  std::unordered_map<std::size_t, std::size_t> moved;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + uniform(count - i);
    std::size_t value_j = j;
    if (auto it = moved.find(j); it != moved.end()) value_j = it->second;
    std::size_t value_i = i;
    if (auto it = moved.find(i); it != moved.end()) value_i = it->second;
    moved[j] = value_i;
    out.push_back(value_j);
  }
  return out;
}

std::vector<std::size_t> Rng::permutation(std::size_t count) {
  std::vector<std::size_t> perm(count);
  fill_permutation(std::span(perm));
  return perm;
}

Rng Rng::stream(std::uint64_t root_seed, std::uint64_t stream_index) {
  // Hash root and index through independent splitmix64 chains before
  // combining, so nearby (root, index) pairs land on decorrelated seeds and
  // stream(r, i) never collides with the plain Rng(r) seeding path.
  std::uint64_t root_state = root_seed;
  std::uint64_t index_state = ~stream_index;
  const std::uint64_t seed =
      splitmix64_next(root_state) ^ rotl64(splitmix64_next(index_state), 17);
  return Rng(seed);
}

Rng Rng::split() {
  // Derive a child seed from two outputs; the child reseeds through
  // splitmix64, decorrelating it from this stream.
  const std::uint64_t a = (*this)();
  const std::uint64_t b = (*this)();
  return Rng(a ^ rotl64(b, 31));
}

}  // namespace gossip
