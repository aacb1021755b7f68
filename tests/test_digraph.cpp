#include "graph/digraph.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>

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

// The multigraph of the arena tests: row u holds (u + r + 1) mod 5 for
// r = 0..5, so every row holds one self-edge (r = 4) and one parallel pair
// (u + 1, at r = 0 and r = 5), and every in-degree is 6.
constexpr NodeId kNodes = 5;
constexpr NodeId kRounds = 6;

NodeId arena_edge(NodeId u, NodeId r) { return (u + r + 1) % kNodes; }

// Row by row: each row ends the arena while it grows, so none moves.
Digraph in_order_build() {
  Digraph g(kNodes);
  for (NodeId u = 0; u < kNodes; ++u) {
    for (NodeId r = 0; r < kRounds; ++r) g.add_edge(u, arena_edge(u, r));
  }
  return g;
}

// Round by round: every full row that does not end the arena moves to its
// end with doubled capacity.
Digraph interleaved_build() {
  Digraph g(kNodes);
  for (NodeId r = 0; r < kRounds; ++r) {
    for (NodeId u = 0; u < kNodes; ++u) g.add_edge(u, arena_edge(u, r));
  }
  return g;
}

TEST(Digraph, InterleavedAddEdgeKeepsRowsInInsertionOrder) {
  const Digraph g = interleaved_build();
  EXPECT_EQ(g.edge_count(), std::size_t{kNodes} * kRounds);
  for (NodeId u = 0; u < kNodes; ++u) {
    const auto row = g.out_neighbors(u);
    ASSERT_EQ(row.size(), kRounds);
    for (NodeId r = 0; r < kRounds; ++r) {
      EXPECT_EQ(row[r], arena_edge(u, r)) << "node " << u << " slot " << r;
    }
    EXPECT_EQ(g.out_degree(u), kRounds);
    EXPECT_EQ(g.in_degree(u), kRounds);
  }
}

TEST(Digraph, RemoveAfterRelocationFreesCapacityForTheNextAdd) {
  Digraph g = interleaved_build();
  // Row 0 now has capacity 8 and holds 6, and row 4 ends the arena. Fill
  // row 0, then remove one edge and add another: the freed slot is reused
  // in place.
  g.add_edge(0, 3);
  g.add_edge(0, 4);
  const NodeId* const row_start = g.out_neighbors(0).data();
  EXPECT_TRUE(g.remove_edge(0, 2));
  EXPECT_FALSE(g.remove_edge(0, 2));
  EXPECT_EQ(g.out_degree(0), 7u);
  EXPECT_EQ(g.in_degree(2), kRounds - 1);
  g.add_edge(0, 2);
  EXPECT_EQ(g.out_neighbors(0).data(), row_start);
  EXPECT_EQ(g.out_degree(0), 8u);
  EXPECT_EQ(g.in_degree(2), kRounds);
  EXPECT_EQ(g.edge_multiplicity(0, 2), 1u);
  EXPECT_EQ(g.edge_multiplicity(0, 3), 2u);
  EXPECT_EQ(g.edge_count(), std::size_t{kNodes} * kRounds + 2);
  // The other rows are untouched by row 0's edits.
  for (NodeId u = 1; u < kNodes; ++u) {
    for (NodeId r = 0; r < kRounds; ++r) {
      EXPECT_EQ(g.out_neighbors(u)[r], arena_edge(u, r));
    }
  }
}

TEST(Digraph, RelocatedBuildEqualsInOrderBuild) {
  const Digraph in_order = in_order_build();
  const Digraph relocated = interleaved_build();
  EXPECT_TRUE(in_order == relocated);
  EXPECT_TRUE(relocated == in_order);
  for (const Digraph* g : {&in_order, &relocated}) {
    EXPECT_EQ(g->self_edge_count(), 5u);
    EXPECT_EQ(g->parallel_edge_count(), 5u);
  }
  Digraph changed = interleaved_build();
  ASSERT_TRUE(changed.remove_edge(4, 0));
  changed.add_edge(4, 1);
  EXPECT_FALSE(in_order == changed);
}

TEST(Digraph, FromInRegularRowsKeepsNodesAtOutDegreeZero) {
  Digraph g = Digraph::from_in_regular_rows(4, {}, 0, 0);
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(g == Digraph(4));
  g.add_edge(3, 1);
  g.add_edge(0, 1);
  EXPECT_EQ(g.in_degree(1), 2u);
  EXPECT_EQ(g.out_neighbors(3).size(), 1u);
  EXPECT_THROW((void)Digraph::from_in_regular_rows(3, {1, 2}, 1, 1),
               std::invalid_argument);
}

TEST(Digraph, FromInRegularRowsAdoptsTheArenaRowByRow) {
  const Digraph g =
      Digraph::from_in_regular_rows(3, {1, 2, 2, 0, 0, 1}, 2, 2);
  EXPECT_EQ(g.edge_count(), 6u);
  EXPECT_EQ(g.out_neighbors(1)[0], 2u);
  EXPECT_EQ(g.out_neighbors(1)[1], 0u);
  EXPECT_EQ(g.in_degree(0), 2u);
  EXPECT_EQ(g.self_edge_count(), 0u);
}

}  // namespace
}  // namespace gossip
