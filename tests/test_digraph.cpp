#include "graph/digraph.hpp"

#include <gtest/gtest.h>

namespace gossip {
namespace {

TEST(Digraph, EmptyGraph) {
  Digraph g(3);
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.out_degree(0), 0u);
  EXPECT_EQ(g.in_degree(0), 0u);
}

TEST(Digraph, AddEdgeUpdatesDegrees) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(2), 2u);
  EXPECT_EQ(g.in_degree(0), 0u);
}

TEST(Digraph, MultiEdges) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  EXPECT_EQ(g.edge_multiplicity(0, 1), 2u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(1), 2u);
  EXPECT_EQ(g.parallel_edge_count(), 1u);
}

TEST(Digraph, RemoveEdge) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  EXPECT_TRUE(g.remove_edge(0, 1));
  EXPECT_EQ(g.edge_multiplicity(0, 1), 1u);
  EXPECT_EQ(g.in_degree(1), 1u);
  EXPECT_TRUE(g.remove_edge(0, 1));
  EXPECT_FALSE(g.remove_edge(0, 1));
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Digraph, SelfEdges) {
  Digraph g(2);
  g.add_edge(0, 0);
  g.add_edge(1, 0);
  EXPECT_EQ(g.self_edge_count(), 1u);
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.in_degree(0), 2u);
}

TEST(Digraph, OutNeighborsMultiset) {
  Digraph g(3);
  g.add_edge(0, 2);
  g.add_edge(0, 2);
  g.add_edge(0, 1);
  const auto& neighbors = g.out_neighbors(0);
  EXPECT_EQ(neighbors.size(), 3u);
}

TEST(Digraph, EqualityIgnoresInsertionOrder) {
  Digraph a(2);
  a.add_edge(0, 1);
  a.add_edge(0, 0);
  Digraph b(2);
  b.add_edge(0, 0);
  b.add_edge(0, 1);
  EXPECT_TRUE(a == b);
  b.add_edge(1, 0);
  EXPECT_FALSE(a == b);
}

TEST(Digraph, ParallelEdgeCountMultipleGroups) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  g.add_edge(0, 1);  // 2 redundant
  g.add_edge(2, 1);
  g.add_edge(2, 1);  // 1 redundant
  EXPECT_EQ(g.parallel_edge_count(), 3u);
}

}  // namespace
}  // namespace gossip
