#include "graph/connectivity.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "graph/graph_gen.hpp"

namespace gossip {
namespace {

TEST(Connectivity, SingleNodeIsConnected) {
  Digraph g(1);
  EXPECT_TRUE(is_weakly_connected(g));
}

TEST(Connectivity, TwoIsolatedNodesNotConnected) {
  Digraph g(2);
  EXPECT_FALSE(is_weakly_connected(g));
}

TEST(Connectivity, DirectedChainIsWeaklyNotStronglyConnected) {
  const Digraph g = line_graph(5);
  EXPECT_TRUE(is_weakly_connected(g));
  // The last vertex has no out-edge, so it reaches no other vertex.
  EXPECT_EQ(g.out_degree(4), 0u);
}

TEST(Connectivity, LiveSubsetConnectivity) {
  // 0 -> 1 -> 2 with node 1 dead: live {0, 2} are disconnected.
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  std::vector<bool> live = {true, false, true};
  EXPECT_FALSE(is_weakly_connected_among(g, live));
  // With an edge 0 -> 2 it becomes connected among the living.
  g.add_edge(0, 2);
  EXPECT_TRUE(is_weakly_connected_among(g, live));
}

TEST(Connectivity, LiveSubsetTrivialCases) {
  Digraph g(3);
  EXPECT_TRUE(is_weakly_connected_among(g, {false, false, false}));
  EXPECT_TRUE(is_weakly_connected_among(g, {false, true, false}));
}

TEST(Connectivity, DiameterOfChain) {
  const Digraph g = line_graph(10);
  EXPECT_EQ(estimate_undirected_diameter(g, 10), 9u);
}

TEST(Connectivity, DiameterOfDisconnectedIsMax) {
  Digraph g(3);
  g.add_edge(0, 1);
  EXPECT_EQ(estimate_undirected_diameter(g, 3),
            std::numeric_limits<std::size_t>::max());
}

TEST(Connectivity, StarGraphWeaklyConnected) {
  const Digraph g = star_graph(50);
  EXPECT_TRUE(is_weakly_connected(g));
  EXPECT_LE(estimate_undirected_diameter(g, 50), 2u);
}

TEST(Connectivity, RandomOutRegularIsConnectedWhp) {
  Rng rng(3);
  const Digraph g = random_out_regular(500, 5, rng);
  EXPECT_TRUE(is_weakly_connected(g));
}

TEST(Connectivity, SelfLoopsDoNotConnect) {
  Digraph g(2);
  g.add_edge(0, 0);
  g.add_edge(1, 1);
  EXPECT_FALSE(is_weakly_connected(g));
}

}  // namespace
}  // namespace gossip
