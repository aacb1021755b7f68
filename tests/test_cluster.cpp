#include "sim/cluster.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "core/send_forget.hpp"
#include "graph/graph_gen.hpp"

namespace gossip::sim {
namespace {

Cluster::ProtocolFactory sf_factory(std::size_t s = 6, std::size_t dl = 0) {
  return [s, dl](NodeId id) {
    return std::make_unique<SendForget>(
        id, SendForgetConfig{.view_size = s, .min_degree = dl});
  };
}

TEST(ClusterTest, ConstructionCreatesLiveNodes) {
  Cluster c(5, sf_factory());
  EXPECT_EQ(c.size(), 5u);
  EXPECT_EQ(c.live_count(), 5u);
  for (NodeId id = 0; id < 5; ++id) {
    EXPECT_TRUE(c.live(id));
    EXPECT_EQ(c.node(id).self(), id);
  }
}

TEST(ClusterTest, KillAndRevive) {
  Cluster c(3, sf_factory());
  c.kill(1);
  EXPECT_FALSE(c.live(1));
  EXPECT_EQ(c.live_count(), 2u);
  c.kill(1);  // idempotent
  EXPECT_EQ(c.live_count(), 2u);
  c.revive(1, sf_factory());
  EXPECT_TRUE(c.live(1));
  EXPECT_EQ(c.live_count(), 3u);
  EXPECT_THROW(c.revive(1, sf_factory()), std::logic_error);
}

TEST(ClusterTest, ReviveResetsState) {
  Cluster c(2, sf_factory());
  c.node(0).install_view({1, 1});
  c.kill(0);
  c.revive(0, sf_factory());
  EXPECT_EQ(c.node(0).view().degree(), 0u);
}

TEST(ClusterTest, Spawn) {
  Cluster c(2, sf_factory());
  const NodeId id = c.spawn(sf_factory());
  EXPECT_EQ(id, 2u);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_TRUE(c.live(id));
}

// row(u) is a second copy of each node's row address; it must follow every
// object the cluster creates or replaces.
TEST(ClusterTest, RowAddressFollowsReviveAndSpawn) {
  Cluster c(4, sf_factory());
  const auto expect_rows_match = [&c] {
    for (NodeId u = 0; u < c.size(); ++u) {
      EXPECT_EQ(c.row(u), c.node(u).view().slots()) << "node " << u;
    }
  };
  expect_rows_match();
  c.kill(1);
  expect_rows_match();
  c.revive(1, sf_factory());
  expect_rows_match();
  c.spawn(sf_factory(10, 0));
  c.spawn(sf_factory());
  EXPECT_EQ(c.size(), 6u);
  expect_rows_match();
}

TEST(ClusterTest, RandomLiveNodeSkipsDead) {
  Cluster c(4, sf_factory());
  c.kill(0);
  c.kill(2);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const NodeId id = c.random_live_node(rng);
    EXPECT_TRUE(id == 1 || id == 3);
  }
}

TEST(ClusterTest, LiveNodesList) {
  Cluster c(4, sf_factory());
  c.kill(2);
  const auto live = c.live_nodes();
  EXPECT_EQ(live, (std::vector<NodeId>{0, 1, 3}));
}

TEST(ClusterTest, InstallAndSnapshotRoundTrip) {
  Rng rng(2);
  const auto g = random_out_regular(20, 4, rng);
  Cluster c(20, sf_factory(6, 0));
  c.install_graph(g);
  const auto snap = c.snapshot();
  EXPECT_TRUE(snap == g);
}

TEST(ClusterTest, InstallGraphSizeMismatchThrows) {
  Cluster c(3, sf_factory());
  EXPECT_THROW(c.install_graph(Digraph(4)), std::invalid_argument);
}

TEST(ClusterTest, InstallGraphTruncatesAtViewCapacity) {
  Digraph g(2);
  for (int i = 0; i < 10; ++i) g.add_edge(0, 1);
  Cluster c(2, sf_factory(6, 0));
  c.install_graph(g);
  EXPECT_EQ(c.node(0).view().degree(), 6u);
}

TEST(ClusterTest, AggregateMetricsSkipsDeadNodes) {
  Cluster c(2, sf_factory());
  Rng rng(3);
  struct NullTransport : Transport {
    void send(Message) override {}
  } transport;
  c.node(0).on_initiate(rng, transport);
  c.node(1).on_initiate(rng, transport);
  EXPECT_EQ(c.aggregate_metrics().actions_initiated, 2u);
  c.kill(1);
  EXPECT_EQ(c.aggregate_metrics().actions_initiated, 1u);
}

}  // namespace
}  // namespace gossip::sim
