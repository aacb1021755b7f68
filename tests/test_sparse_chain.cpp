#include "markov/sparse_chain.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"

namespace gossip::markov {
namespace {

TEST(SparseChainTest, TwoStateStationary) {
  SparseChain chain(2);
  chain.add(0, 1, 0.3);
  chain.add(1, 0, 0.1);
  chain.finalize();
  const auto result = chain.stationary();
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.distribution[0], 0.25, 1e-9);
  EXPECT_NEAR(result.distribution[1], 0.75, 1e-9);
}

TEST(SparseChainTest, SelfLoopsAreImplicit) {
  SparseChain chain(2);
  chain.add(0, 0, 0.4);  // ignored
  chain.add(0, 1, 0.5);
  chain.finalize();
  EXPECT_DOUBLE_EQ(chain.row_sum(0), 0.5);
  EXPECT_EQ(chain.transition_count(), 1u);
}

TEST(SparseChainTest, StepMatchesDenseSemantics) {
  SparseChain chain(3);
  chain.add(0, 1, 1.0);
  chain.add(1, 2, 0.5);
  chain.finalize();
  const auto out = chain.step({1.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 1.0);
  const auto out2 = chain.step(out);
  EXPECT_DOUBLE_EQ(out2[1], 0.5);
  EXPECT_DOUBLE_EQ(out2[2], 0.5);
}

TEST(SparseChainTest, RowOverflowThrows) {
  SparseChain chain(2);
  chain.add(0, 1, 0.8);
  chain.add(0, 1, 0.5);
  EXPECT_THROW(chain.finalize(), std::runtime_error);
}

TEST(SparseChainTest, ResizeOnDemand) {
  SparseChain chain;
  chain.add(5, 7, 0.1);
  EXPECT_EQ(chain.state_count(), 8u);
}

TEST(SparseChainTest, StronglyConnectedDetection) {
  SparseChain cycle(3);
  cycle.add(0, 1, 0.5);
  cycle.add(1, 2, 0.5);
  cycle.add(2, 0, 0.5);
  cycle.finalize();
  EXPECT_TRUE(cycle.strongly_connected());

  SparseChain chainlike(3);
  chainlike.add(0, 1, 0.5);
  chainlike.add(1, 2, 0.5);
  chainlike.finalize();
  EXPECT_FALSE(chainlike.strongly_connected());
}

TEST(SparseChainTest, DoublyStochasticDetection) {
  // Symmetric chain: rows and columns both sum to 1.
  SparseChain symmetric(2);
  symmetric.add(0, 1, 0.3);
  symmetric.add(1, 0, 0.3);
  symmetric.finalize();
  EXPECT_TRUE(symmetric.doubly_stochastic());

  SparseChain skewed(2);
  skewed.add(0, 1, 0.3);
  skewed.add(1, 0, 0.1);
  skewed.finalize();
  EXPECT_FALSE(skewed.doubly_stochastic());
}

TEST(SparseChainTest, DoublyStochasticImpliesUniformStationary) {
  SparseChain chain(4);
  for (std::size_t s = 0; s < 4; ++s) {
    chain.add(s, (s + 1) % 4, 0.25);
    chain.add(s, (s + 3) % 4, 0.25);
  }
  chain.finalize();
  ASSERT_TRUE(chain.doubly_stochastic());
  const auto result = chain.stationary();
  for (const double x : result.distribution) {
    EXPECT_NEAR(x, 0.25, 1e-9);
  }
}

TEST(SparseChainTest, EmptyChainThrowsOnStationary) {
  SparseChain chain;
  chain.finalize();
  EXPECT_THROW(chain.stationary(), std::runtime_error);
}

TEST(SparseChainTest, WarmStartValidation) {
  SparseChain chain(2);
  chain.add(0, 1, 0.5);
  chain.add(1, 0, 0.5);
  chain.finalize();
  EXPECT_THROW(chain.stationary({1.0}), std::invalid_argument);
  const auto r = chain.stationary({0.9, 0.1});
  EXPECT_NEAR(r.distribution[0], 0.5, 1e-9);
}

TEST(SparseChainTest, StructureValueSplitRewritesInPlace) {
  // add_edge/finalize_structure/set_prob/commit_values: the sparsity
  // pattern is compiled once, values are rewritten per "outer iteration".
  SparseChain chain(3);
  const std::size_t s01 = chain.add_edge(0, 1);
  const std::size_t s12 = chain.add_edge(1, 2);
  const std::size_t s20 = chain.add_edge(2, 0);
  const std::size_t self = chain.add_edge(1, 1);
  EXPECT_EQ(self, SparseChain::kNoSlot);
  chain.finalize_structure();

  chain.set_prob(s01, 0.3);
  chain.set_prob(s12, 0.5);
  chain.set_prob(s20, 0.2);
  chain.set_prob(self, 7.0);  // kNoSlot: ignored
  chain.commit_values();
  EXPECT_DOUBLE_EQ(chain.row_sum(0), 0.3);
  const auto out1 = chain.step({1.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(out1[0], 0.7);
  EXPECT_DOUBLE_EQ(out1[1], 0.3);

  // Second value pass over the same structure.
  chain.set_prob(s01, 0.9);
  chain.set_prob(s12, 0.1);
  chain.set_prob(s20, 0.4);
  chain.commit_values();
  const auto out2 = chain.step({1.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(out2[0], 0.1);
  EXPECT_DOUBLE_EQ(out2[1], 0.9);
}

TEST(SparseChainTest, StructureValueSplitMatchesDirectBuild) {
  // A chain assembled via the split must be indistinguishable from one
  // built directly with add()+finalize().
  Rng rng(33);
  SparseChain direct(50);
  SparseChain split(50);
  std::vector<std::size_t> slots;
  std::vector<double> probs;
  for (std::size_t i = 0; i < 50; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      const std::size_t to = rng.uniform(50);
      const double p = 0.2 * rng.uniform_double();
      direct.add(i, to, p);
      slots.push_back(split.add_edge(i, to));
      probs.push_back(to == i ? 0.0 : p);
    }
  }
  direct.finalize();
  split.finalize_structure();
  for (std::size_t k = 0; k < slots.size(); ++k) {
    split.set_prob(slots[k], probs[k]);
  }
  split.commit_values();

  std::vector<double> pi(50);
  double total = 0.0;
  for (double& x : pi) total += (x = rng.uniform_double());
  for (double& x : pi) x /= total;
  const auto a = direct.step(pi);
  const auto b = split.step(pi);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-15) << "i=" << i;
  }
}

TEST(SparseChainTest, CommitValuesValidatesRows) {
  SparseChain chain(2);
  const std::size_t slot = chain.add_edge(0, 1);
  chain.finalize_structure();
  chain.set_prob(slot, 1.5);
  EXPECT_THROW(chain.commit_values(), std::runtime_error);
  chain.set_prob(slot, 0.5);
  chain.commit_values();
  EXPECT_DOUBLE_EQ(chain.row_sum(0), 0.5);
}

// Property test: sparse step == dense matvec on random chains. The dense
// reference applies pi' = pi P with the implied self-loop mass on the
// diagonal, accumulated in plain row order.
TEST(SparseChainTest, StepMatchesDenseMatvecOnRandomChains) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    const std::size_t n = 20 + rng.uniform(60);
    SparseChain chain(n);
    std::vector<double> dense(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      double remaining = 1.0;
      const std::size_t fanout = 1 + rng.uniform(6);
      for (std::size_t j = 0; j < fanout; ++j) {
        const std::size_t to = rng.uniform(n);
        const double p = remaining * 0.3 * rng.uniform_double();
        remaining -= p;
        chain.add(i, to, p);
        if (to != i) dense[i * n + to] += p;
      }
    }
    chain.finalize();
    for (std::size_t i = 0; i < n; ++i) {
      dense[i * n + i] += 1.0 - chain.row_sum(i);
    }

    std::vector<double> pi(n);
    double total = 0.0;
    for (double& x : pi) total += (x = rng.uniform_double());
    for (double& x : pi) x /= total;

    std::vector<double> expect(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        expect[j] += pi[i] * dense[i * n + j];
      }
    }
    const auto got = chain.step(pi);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(got[j], expect[j], 1e-14) << "seed=" << seed << " j=" << j;
    }
  }
}

TEST(SparseChainTest, AcceleratedStationaryMatchesPlain) {
  // Same stopping criterion, same destination: the Anderson-accelerated
  // solve must agree with classic power iteration to solver tolerance.
  Rng rng(77);
  SparseChain chain(200);
  for (std::size_t i = 0; i < 200; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      std::size_t to = rng.uniform(200);
      if (to == i) to = (to + 1) % 200;
      chain.add(i, to, 0.3 * rng.uniform_double() + 1e-3);
    }
  }
  chain.finalize();
  const auto plain = chain.stationary({}, 1e-13, 500'000, false);
  const auto accel = chain.stationary({}, 1e-13, 500'000, true);
  ASSERT_TRUE(plain.converged);
  ASSERT_TRUE(accel.converged);
  EXPECT_LE(accel.iterations, plain.iterations);
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_NEAR(accel.distribution[i], plain.distribution[i], 1e-9)
        << "i=" << i;
  }
}

// Random chains whose transitions stay within `half_width` of the
// diagonal; nearest-neighbour moves both ways keep them irreducible.
SparseChain random_banded_chain(Rng& rng, std::size_t n,
                                std::size_t half_width) {
  SparseChain chain(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) chain.add(i, i - 1, 0.05 + 0.1 * rng.uniform_double());
    if (i + 1 < n) chain.add(i, i + 1, 0.05 + 0.1 * rng.uniform_double());
    for (std::size_t j = 0; j < 3; ++j) {
      const std::size_t lo = i > half_width ? i - half_width : 0;
      const std::size_t hi = std::min(n - 1, i + half_width);
      chain.add(i, lo + rng.uniform(hi - lo + 1), 0.2 * rng.uniform_double());
    }
  }
  chain.finalize();
  return chain;
}

TEST(SparseChainTest, DirectStationaryMatchesPowerIterationOnBandedChains) {
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u}) {
    Rng rng(seed);
    const std::size_t n = 30 + rng.uniform(90);
    const std::size_t half_width = 4 + rng.uniform(10);
    const SparseChain chain = random_banded_chain(rng, n, half_width);
    const auto direct = chain.stationary_direct();
    const auto power = chain.stationary({}, 1e-15, 2'000'000, true);
    ASSERT_TRUE(direct.converged) << "seed=" << seed;
    ASSERT_TRUE(power.converged) << "seed=" << seed;
    EXPECT_EQ(direct.iterations, 1u);
    EXPECT_LT(direct.residual, 1e-14) << "seed=" << seed;
    double l1 = 0.0;
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      l1 += std::abs(direct.distribution[i] - power.distribution[i]);
      total += direct.distribution[i];
    }
    EXPECT_LT(l1, 1e-12) << "seed=" << seed << " n=" << n;
    EXPECT_NEAR(total, 1.0, 1e-14);
  }
}

TEST(SparseChainTest, DirectStationaryOfBirthDeathSpanningTheDoubleRange) {
  // pi_k ∝ r^k with r = up/down. Over 400 states the masses span ~1e-680
  // either way; rebuilding them from state 0 upward must rescale instead
  // of overflowing, and the smallest masses underflow to zero.
  constexpr std::size_t n = 400;
  for (const double r : {50.0, 0.02}) {
    const double up = r > 1.0 ? 0.5 : 0.01;
    const double down = up / r;
    SparseChain chain(n);
    for (std::size_t k = 0; k + 1 < n; ++k) {
      chain.add(k, k + 1, up);
      chain.add(k + 1, k, down);
    }
    chain.finalize();
    const auto result = chain.stationary_direct();
    ASSERT_TRUE(result.converged) << "r=" << r;
    // Closed form, normalized against the heaviest end in log space.
    const double heavy = r > 1.0 ? static_cast<double>(n - 1) : 0.0;
    const double q = r > 1.0 ? 1.0 / r : r;
    const double norm = (1.0 - q) / (1.0 - std::pow(q, n));
    double l1 = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const double got = result.distribution[k];
      ASSERT_TRUE(std::isfinite(got)) << "r=" << r << " k=" << k;
      const double expect =
          norm * std::pow(r, static_cast<double>(k) - heavy);
      l1 += std::abs(got - expect);
      if (expect > 1e-290) {
        EXPECT_NEAR(got, expect, 1e-12 * expect) << "r=" << r << " k=" << k;
      }
    }
    EXPECT_LT(l1, 1e-14) << "r=" << r;
  }
}

TEST(SparseChainTest, DirectStationaryFlagsReducibleChains) {
  // Two closed classes, {0, 1} and {2, 3}: no unique stationary law.
  SparseChain chain(4);
  chain.add(0, 1, 0.4);
  chain.add(1, 0, 0.3);
  chain.add(2, 3, 0.2);
  chain.add(3, 2, 0.6);
  chain.finalize();
  const auto result = chain.stationary_direct();
  EXPECT_FALSE(result.converged);
  EXPECT_TRUE(result.distribution.empty());
  EXPECT_FALSE(std::isnan(result.residual));
}

TEST(SparseChainTest, DirectStationaryOfOneStateChain) {
  SparseChain chain(1);
  chain.finalize();
  const auto result = chain.stationary_direct();
  ASSERT_TRUE(result.converged);
  ASSERT_EQ(result.distribution.size(), 1u);
  EXPECT_DOUBLE_EQ(result.distribution[0], 1.0);
}

}  // namespace
}  // namespace gossip::markov
