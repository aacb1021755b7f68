#include "graph/graph_gen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "core/flat_send_forget.hpp"
#include "graph/connectivity.hpp"
#include "graph/graph_stats.hpp"
#include "sim/run.hpp"

namespace gossip {
namespace {

TEST(GraphGen, RandomOutRegularDegrees) {
  Rng rng(1);
  const auto g = random_out_regular(100, 7, rng);
  for (NodeId u = 0; u < 100; ++u) {
    EXPECT_EQ(g.out_degree(u), 7u);
    EXPECT_EQ(g.edge_multiplicity(u, u), 0u) << "self-edge at " << u;
  }
  EXPECT_EQ(g.edge_count(), 700u);
}

TEST(GraphGen, RandomOutRegularDistinctNeighbors) {
  Rng rng(2);
  const auto g = random_out_regular(50, 10, rng);
  EXPECT_EQ(g.parallel_edge_count(), 0u);
}

TEST(GraphGen, RandomOutRegularRejectsTooLargeDegree) {
  Rng rng(3);
  EXPECT_THROW(random_out_regular(5, 5, rng), std::invalid_argument);
}

TEST(GraphGen, RingWithChordsConnected) {
  Rng rng(4);
  const auto g = ring_with_chords(200, 2, rng);
  EXPECT_TRUE(is_weakly_connected(g));
  for (NodeId u = 0; u < 200; ++u) {
    EXPECT_EQ(g.out_degree(u), 3u);
    EXPECT_EQ(g.edge_multiplicity(u, u), 0u);
  }
}

TEST(GraphGen, PermutationRegularExactDegrees) {
  Rng rng(5);
  constexpr std::size_t kK = 30;
  const auto g = permutation_regular(300, kK, rng);
  for (NodeId u = 0; u < 300; ++u) {
    EXPECT_EQ(g.out_degree(u), kK);
    EXPECT_EQ(g.in_degree(u), kK);
    EXPECT_EQ(g.edge_multiplicity(u, u), 0u) << "fixed point at " << u;
  }
  // Sum degree ds(u) = k + 2k = 3k for every node (the §6.1 init).
  const auto sums = sum_degree_histogram(g);
  EXPECT_EQ(sums.max_value(), 3 * kK);
  EXPECT_EQ(sums.count(3 * kK), 300u);
  EXPECT_DOUBLE_EQ(sums.variance(), 0.0);
}

TEST(GraphGen, PermutationRegularSmallSystems) {
  Rng rng(6);
  const auto g = permutation_regular(2, 3, rng);
  EXPECT_EQ(g.out_degree(0), 3u);
  EXPECT_EQ(g.edge_multiplicity(0, 0), 0u);
  EXPECT_EQ(g.edge_multiplicity(1, 1), 0u);
  EXPECT_THROW(permutation_regular(1, 3, rng), std::invalid_argument);
}

// The edge-at-a-time generator, kept verbatim as the reference that the
// node-by-node build must match row for row and draw for draw.
Digraph reference_permutation_regular(std::size_t n, std::size_t k,
                                      Rng& rng) {
  if (n < 2) throw std::invalid_argument("need at least 2 nodes");
  Digraph g(n);
  for (std::size_t round = 0; round < k; ++round) {
    auto perm = rng.permutation(n);
    // Remove fixed points by swapping each with its successor; the result
    // remains a permutation and has no fixed points.
    for (std::size_t i = 0; i < n; ++i) {
      if (perm[i] == i) std::swap(perm[i], perm[(i + 1) % n]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      assert(perm[i] != i);
      g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(perm[i]));
    }
  }
  return g;
}

// True when the fix-up pass over the last of the k permutations drawn from
// Rng(seed) still finds n-1 fixed and swaps it with slot 0 (wrap-around).
bool last_round_wraps_around(std::size_t n, std::size_t k,
                             std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t round = 0; round + 1 < k; ++round) {
    (void)rng.permutation(n);
  }
  auto perm = rng.permutation(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (perm[i] == i) std::swap(perm[i], perm[i + 1]);
  }
  return perm[n - 1] == n - 1;
}

void expect_matches_reference(std::size_t n, std::size_t k,
                              std::uint64_t seed) {
  SCOPED_TRACE(testing::Message()
               << "n=" << n << " k=" << k << " seed=" << seed);
  Rng reference_rng(seed);
  Rng rng(seed);
  const Digraph expected = reference_permutation_regular(n, k, reference_rng);
  const Digraph g = permutation_regular(n, k, rng);
  EXPECT_TRUE(g == expected);
  EXPECT_EQ(g.edge_count(), n * k);
  for (NodeId u = 0; u < n; ++u) {
    ASSERT_TRUE(std::ranges::equal(g.out_neighbors(u),
                                   expected.out_neighbors(u)))
        << "node " << u;
    ASSERT_EQ(g.in_degree(u), k) << "node " << u;
  }
  // Callers such as `simulate` keep drawing from the same generator.
  const Rng::result_type next = rng();
  EXPECT_EQ(next, reference_rng());

  // The slab sink writes the same rows into a flat cluster from the same
  // draws: the views, the fingerprint and the next draw all match.
  const SendForgetConfig config{
      .view_size = std::max<std::size_t>(6, k + k % 2), .min_degree = 0};
  std::uint64_t graph_fingerprint = 0;
  {
    FlatSendForgetCluster from_graph(n, config);
    from_graph.install_graph(g);
    graph_fingerprint = from_graph.fingerprint();
  }
  Rng slab_rng(seed);
  FlatSendForgetCluster from_slab(n, config);
  sim::install_permutation_regular(from_slab, k, slab_rng);
  EXPECT_EQ(from_slab.fingerprint(), graph_fingerprint);
  for (NodeId u = 0; u < n; ++u) {
    ASSERT_TRUE(std::ranges::equal(from_slab.view_ids(u),
                                   expected.out_neighbors(u)))
        << "node " << u;
  }
  EXPECT_EQ(slab_rng(), next);
}

TEST(GraphGen, PermutationRegularMatchesEdgeAtATimeReference) {
  struct Case {
    std::size_t n;
    std::size_t k;
    std::uint64_t seed;
  };
  const Case cases[] = {
      {2, 1, 1},    {2, 3, 6},     {10, 0, 1},          {300, 30, 5},
      {1000, 7, 3}, {1000, 18, 4}, {1'000'000, 18, 22},
  };
  for (const auto& c : cases) expect_matches_reference(c.n, c.k, c.seed);
}

// Seeds whose last round leaves n-1 fixed until the fix-up pass swaps it
// with slot 0, including the smallest such system (n = 3, k = 1).
TEST(GraphGen, PermutationRegularMatchesReferenceOnWrapAroundFixedPoint) {
  for (const auto& [n, k, seed] :
       {std::tuple<std::size_t, std::size_t, std::uint64_t>{3, 1, 1},
        {3, 4, 9},
        {5, 3, 8},
        {50, 5, 5}}) {
    ASSERT_TRUE(last_round_wraps_around(n, k, seed))
        << "n=" << n << " k=" << k << " seed=" << seed;
    expect_matches_reference(n, k, seed);
  }
}

TEST(GraphGen, LineGraphShape) {
  const auto g = line_graph(4);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.out_degree(3), 0u);
  EXPECT_EQ(g.in_degree(0), 0u);
  EXPECT_TRUE(is_weakly_connected(g));
}

TEST(GraphGen, StarGraphShape) {
  const auto g = star_graph(10);
  EXPECT_EQ(g.in_degree(0), 9u);
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_TRUE(is_weakly_connected(g));
}

TEST(GraphGen, GeneratorsAreSeedDeterministic) {
  Rng rng1(77);
  Rng rng2(77);
  EXPECT_TRUE(random_out_regular(40, 4, rng1) ==
              random_out_regular(40, 4, rng2));
}

}  // namespace
}  // namespace gossip
