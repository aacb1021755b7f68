#include "sampling/health.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/send_forget.hpp"
#include "graph/connectivity.hpp"
#include "graph/graph_gen.hpp"
#include "sim/round_driver.hpp"

namespace gossip::sampling {
namespace {

sim::Cluster::ProtocolFactory sf_factory() {
  return [](NodeId id) {
    return std::make_unique<SendForget>(
        id, SendForgetConfig{.view_size = 16, .min_degree = 6});
  };
}

TEST(Health, FreshClusterReport) {
  Rng rng(1);
  sim::Cluster cluster(100, sf_factory());
  cluster.install_graph(permutation_regular(100, 4, rng));
  const auto report = measure_health(cluster);
  EXPECT_EQ(report.nodes, 100u);
  EXPECT_EQ(report.live, 100u);
  EXPECT_EQ(report.edges, 400u);
  EXPECT_DOUBLE_EQ(report.out_mean, 4.0);
  EXPECT_DOUBLE_EQ(report.in_mean, 4.0);
  EXPECT_TRUE(report.connected);
  EXPECT_DOUBLE_EQ(report.dead_reference_fraction, 0.0);
  // permutation_regular may assign the same target twice (different
  // permutations), creating a few intra-view duplicates.
  EXPECT_GT(report.independence, 0.95);
  EXPECT_DOUBLE_EQ(report.spectral_gap, 0.0);  // not requested
}

TEST(Health, SteadyStateWithSpectral) {
  Rng rng(2);
  sim::Cluster cluster(200, sf_factory());
  cluster.install_graph(permutation_regular(200, 4, rng));
  sim::UniformLoss loss(0.02);
  sim::RoundDriver driver(cluster, loss, rng);
  driver.run_rounds(200);
  const auto report = measure_health(cluster, /*with_spectral=*/true);
  EXPECT_TRUE(report.connected);
  EXPECT_GT(report.out_mean, 6.0);
  EXPECT_GT(report.duplication_rate, 0.0);
  EXPECT_GT(report.spectral_gap, 0.1);
  EXPECT_GT(report.independence, 0.8);
}

TEST(Health, DeadNodesAccounted) {
  Rng rng(3);
  sim::Cluster cluster(50, sf_factory());
  cluster.install_graph(permutation_regular(50, 4, rng));
  for (NodeId v = 0; v < 10; ++v) cluster.kill(v);
  const auto report = measure_health(cluster, /*with_spectral=*/true);
  EXPECT_EQ(report.live, 40u);
  // 40 live nodes hold 160 refs; on average 20% point at the dead.
  EXPECT_NEAR(report.dead_reference_fraction, 0.2, 0.08);
  // Spectral skipped when not all nodes are live.
  EXPECT_DOUBLE_EQ(report.spectral_gap, 0.0);
}

TEST(Health, ToStringMentionsKeyFields) {
  Rng rng(4);
  sim::Cluster cluster(20, sf_factory());
  cluster.install_graph(permutation_regular(20, 4, rng));
  const auto text = measure_health(cluster).to_string();
  EXPECT_NE(text.find("connected"), std::string::npos);
  EXPECT_NE(text.find("outdegree"), std::string::npos);
  EXPECT_NE(text.find("independent entries"), std::string::npos);
}

TEST(Health, PartitionedReported) {
  sim::Cluster cluster(4, sf_factory());
  // Two disconnected pairs.
  cluster.node(0).install_view({1, 1});
  cluster.node(1).install_view({0, 0});
  cluster.node(2).install_view({3, 3});
  cluster.node(3).install_view({2, 2});
  const auto report = measure_health(cluster);
  EXPECT_FALSE(report.connected);
  EXPECT_NE(report.to_string().find("PARTITIONED"), std::string::npos);
}

// measure_health takes connectivity from the probe's component census;
// the reference is a BFS over the membership-graph snapshot restricted to
// live nodes.
bool reference_connected(const sim::Cluster& cluster) {
  return is_weakly_connected_among(cluster.snapshot(), cluster.liveness());
}

TEST(Health, ConnectivityMatchesReferenceOnSteadyOverlay) {
  Rng rng(5);
  sim::Cluster cluster(300, sf_factory());
  cluster.install_graph(permutation_regular(300, 4, rng));
  sim::UniformLoss loss(0.02);
  sim::RoundDriver driver(cluster, loss, rng);
  driver.run_rounds(50);
  ASSERT_TRUE(reference_connected(cluster));
  EXPECT_TRUE(measure_health(cluster).connected);
}

TEST(Health, ConnectivityMatchesReferenceOnPartition) {
  sim::Cluster cluster(6, sf_factory());
  // A triangle and a separate pair. Node 5 reaches the triangle only
  // through its third slot, past the two edges the census lists first.
  cluster.node(0).install_view({1, 2});
  cluster.node(1).install_view({2, 0});
  cluster.node(2).install_view({0, 1});
  cluster.node(3).install_view({4, 4});
  cluster.node(4).install_view({3, 3});
  cluster.node(5).install_view({5, 5, 0});
  ASSERT_FALSE(reference_connected(cluster));
  EXPECT_FALSE(measure_health(cluster).connected);
  // One edge from the pair into the triangle joins everything.
  cluster.node(4).install_view({3, 3, 5});
  ASSERT_TRUE(reference_connected(cluster));
  EXPECT_TRUE(measure_health(cluster).connected);
}

TEST(Health, ConnectivityMatchesReferenceThroughDeadNode) {
  sim::Cluster cluster(5, sf_factory());
  // Two live pairs whose only link is node 4, which then leaves.
  cluster.node(0).install_view({1, 4});
  cluster.node(1).install_view({0, 4});
  cluster.node(2).install_view({3, 4});
  cluster.node(3).install_view({2, 4});
  cluster.node(4).install_view({0, 2});
  ASSERT_TRUE(reference_connected(cluster));
  EXPECT_TRUE(measure_health(cluster).connected);
  cluster.kill(4);
  ASSERT_FALSE(reference_connected(cluster));
  EXPECT_FALSE(measure_health(cluster).connected);
}

TEST(Health, ConnectivityMatchesReferenceWithIdsOutsideTheCluster) {
  sim::Cluster cluster(4, sf_factory());
  // Both pairs hold the same id the cluster does not have: it joins
  // nothing.
  cluster.node(0).install_view({1'000'000, 1});
  cluster.node(1).install_view({0, 0});
  cluster.node(2).install_view({1'000'000, 3});
  cluster.node(3).install_view({2, 1'000'000});
  ASSERT_FALSE(reference_connected(cluster));
  EXPECT_FALSE(measure_health(cluster).connected);
  cluster.node(3).install_view({2, 1'000'000, 1});
  ASSERT_TRUE(reference_connected(cluster));
  EXPECT_TRUE(measure_health(cluster).connected);
}

}  // namespace
}  // namespace gossip::sampling
