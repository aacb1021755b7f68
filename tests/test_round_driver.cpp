#include "sim/round_driver.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/send_forget.hpp"
#include "graph/graph_gen.hpp"
#include "graph/graph_stats.hpp"

namespace gossip::sim {
namespace {

Cluster::ProtocolFactory sf_factory(std::size_t s, std::size_t dl) {
  return [s, dl](NodeId id) {
    return std::make_unique<SendForget>(
        id, SendForgetConfig{.view_size = s, .min_degree = dl});
  };
}

TEST(RoundDriverTest, CountsActions) {
  Cluster cluster(10, sf_factory(6, 0));
  UniformLoss loss(0.0);
  Rng rng(1);
  RoundDriver driver(cluster, loss, rng);
  driver.run_actions(25);
  EXPECT_EQ(driver.actions_executed(), 25u);
  driver.run_rounds(2);
  EXPECT_EQ(driver.actions_executed(), 25u + 20u);
}

// The schedule itself: each round first draws live_count() picks, then
// runs them in order. A reference loop written against the Cluster and
// DirectNetwork APIs, fed the same seed and the same churn between rounds,
// must leave every view and every counter identical.
TEST(RoundDriverTest, ActionsRunPicksDrawnUpFront) {
  constexpr std::size_t kNodes = 60;
  const auto factory = sf_factory(8, 2);
  Rng graph_rng(8);
  const Digraph graph = random_out_regular(kNodes, 4, graph_rng);
  Cluster driven(kNodes, factory);
  Cluster reference(kNodes, factory);
  driven.install_graph(graph);
  reference.install_graph(graph);
  UniformLoss driven_loss(0.1);
  UniformLoss reference_loss(0.1);
  Rng driven_rng(9);
  Rng reference_rng(9);
  RoundDriver driver(driven, driven_loss, driven_rng);
  DirectNetwork network(reference, reference_loss, reference_rng);
  const auto churn = [&](Cluster& cluster, std::uint64_t round) {
    cluster.kill(static_cast<NodeId>((round * 7) % kNodes));
    const auto back = static_cast<NodeId>((round * 11 + 3) % kNodes);
    if (!cluster.live(back)) cluster.revive(back, factory);
  };
  std::vector<NodeId> picks;
  for (std::uint64_t round = 1; round <= 30; ++round) {
    driver.run_rounds(1);
    picks.resize(reference.live_count());
    for (NodeId& u : picks) u = reference.random_live_node(reference_rng);
    for (const NodeId u : picks) {
      reference.node(u).on_initiate(reference_rng, network);
    }
    churn(driven, round);
    churn(reference, round);
  }
  EXPECT_GT(network.metrics().sent, 0u);
  EXPECT_EQ(driver.network_metrics().sent, network.metrics().sent);
  for (NodeId u = 0; u < kNodes; ++u) {
    SCOPED_TRACE(u);
    EXPECT_EQ(driven.live(u), reference.live(u));
    EXPECT_EQ(driven.node(u).view().entries(),
              reference.node(u).view().entries());
    const ProtocolMetrics& a = driven.node(u).metrics();
    const ProtocolMetrics& b = reference.node(u).metrics();
    EXPECT_EQ(a.actions_initiated, b.actions_initiated);
    EXPECT_EQ(a.self_loop_actions, b.self_loop_actions);
    EXPECT_EQ(a.messages_sent, b.messages_sent);
    EXPECT_EQ(a.duplications, b.duplications);
    EXPECT_EQ(a.messages_received, b.messages_received);
    EXPECT_EQ(a.deletions, b.deletions);
    EXPECT_EQ(a.ids_accepted, b.ids_accepted);
  }
}

TEST(RoundDriverTest, ActionsSpreadAcrossNodes) {
  Cluster cluster(10, sf_factory(6, 0));
  UniformLoss loss(0.0);
  Rng rng(2);
  RoundDriver driver(cluster, loss, rng);
  driver.run_rounds(100);
  // Every node should have initiated roughly 100 actions.
  for (NodeId id = 0; id < 10; ++id) {
    EXPECT_NEAR(static_cast<double>(cluster.node(id).metrics().actions_initiated),
                100.0, 40.0);
  }
}

TEST(RoundDriverTest, RoundsUseLiveCount) {
  Cluster cluster(10, sf_factory(6, 0));
  cluster.kill(0);
  cluster.kill(1);
  UniformLoss loss(0.0);
  Rng rng(3);
  RoundDriver driver(cluster, loss, rng);
  driver.run_rounds(1);
  EXPECT_EQ(driver.actions_executed(), 8u);
  EXPECT_EQ(cluster.node(0).metrics().actions_initiated, 0u);
}

TEST(RoundDriverTest, MessagesFlowEndToEnd) {
  Rng graph_rng(4);
  // permutation_regular gives ds(u) = 12 <= s = 16 for every node, so by
  // Lemma 6.2 no duplication or deletion occurs and the edge count is
  // exactly invariant.
  Cluster cluster(50, sf_factory(16, 0));
  cluster.install_graph(permutation_regular(50, 4, graph_rng));
  UniformLoss loss(0.0);
  Rng rng(5);
  RoundDriver driver(cluster, loss, rng);
  driver.run_rounds(20);
  EXPECT_GT(driver.network_metrics().sent, 0u);
  EXPECT_EQ(driver.network_metrics().sent, driver.network_metrics().delivered);
  EXPECT_EQ(cluster.snapshot().edge_count(), 200u);
  EXPECT_EQ(cluster.aggregate_metrics().duplications, 0u);
  EXPECT_EQ(cluster.aggregate_metrics().deletions, 0u);
}

TEST(RoundDriverTest, LossReportedInNetworkMetrics) {
  Rng graph_rng(6);
  Cluster cluster(50, sf_factory(10, 4));
  cluster.install_graph(random_out_regular(50, 4, graph_rng));
  UniformLoss loss(0.2);
  Rng rng(7);
  RoundDriver driver(cluster, loss, rng);
  driver.run_rounds(200);
  EXPECT_NEAR(driver.network_metrics().loss_rate(), 0.2, 0.03);
}

}  // namespace
}  // namespace gossip::sim
