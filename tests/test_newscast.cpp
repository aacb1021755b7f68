#include "core/baselines/newscast.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "graph/connectivity.hpp"
#include "graph/graph_gen.hpp"
#include "sim/round_driver.hpp"
#include "test_support.hpp"

namespace gossip {
namespace {

using testing::CaptureTransport;

TEST(Newscast, EmptyViewIsSelfLoop) {
  Newscast node(0, NewscastConfig{.view_size = 8});
  Rng rng(1);
  CaptureTransport transport;
  node.on_initiate(rng, transport);
  EXPECT_TRUE(transport.sent.empty());
  EXPECT_EQ(node.metrics().self_loop_actions, 1u);
}

TEST(Newscast, ExchangeCarriesSelfDescriptorFirst) {
  Newscast node(9, NewscastConfig{.view_size = 8});
  node.install_view({1, 2, 3});
  Rng rng(2);
  CaptureTransport transport;
  node.on_initiate(rng, transport);
  ASSERT_EQ(transport.sent.size(), 1u);
  const Message& m = transport.sent.front();
  EXPECT_EQ(m.kind, MessageKind::kNewscastExchange);
  ASSERT_EQ(m.payload.size(), 4u);  // self + 3 copies
  EXPECT_EQ(m.payload.front().id, 9u);
  EXPECT_FALSE(m.payload.front().dependent);
  for (std::size_t k = 1; k < m.payload.size(); ++k) {
    EXPECT_TRUE(m.payload[k].dependent);  // copies, originals kept
  }
  // Nothing deleted at send time.
  EXPECT_EQ(node.view().degree(), 3u);
}

TEST(Newscast, ExchangeTriggersReplyAndMerge) {
  Newscast replier(5, NewscastConfig{.view_size = 8});
  replier.install_view({10, 11});
  Rng rng(3);
  CaptureTransport transport;
  Message exchange;
  exchange.from = 2;
  exchange.to = 5;
  exchange.kind = MessageKind::kNewscastExchange;
  exchange.payload = {ViewEntry{2, false}, ViewEntry{20, true}};
  replier.on_message(exchange, rng, transport);
  ASSERT_EQ(transport.sent.size(), 1u);
  EXPECT_EQ(transport.sent.front().kind, MessageKind::kNewscastReply);
  EXPECT_EQ(transport.sent.front().to, 2u);
  // Merged: old {10, 11} plus incoming {2, 20}.
  EXPECT_TRUE(replier.view().contains(2));
  EXPECT_TRUE(replier.view().contains(20));
  EXPECT_TRUE(replier.view().contains(10));
  EXPECT_EQ(replier.view().degree(), 4u);
}

TEST(Newscast, MergeKeepsYoungestPerIdAndCapsAtCapacity) {
  Newscast node(0, NewscastConfig{.view_size = 6});
  node.install_view({1, 2, 3, 4, 5, 6});
  Rng rng(4);
  CaptureTransport transport;
  // Age the residents by initiating a few times (clock advances).
  for (int k = 0; k < 5; ++k) node.on_initiate(rng, transport);
  Message exchange;
  exchange.from = 7;
  exchange.to = 0;
  exchange.kind = MessageKind::kNewscastExchange;
  exchange.payload = {ViewEntry{7, false}, ViewEntry{8, true},
                      ViewEntry{9, true}};
  node.on_message(exchange, rng, transport);
  // Capacity 6: the three young arrivals displace three aged residents.
  EXPECT_EQ(node.view().degree(), 6u);
  EXPECT_TRUE(node.view().contains(7));
  EXPECT_TRUE(node.view().contains(8));
  EXPECT_TRUE(node.view().contains(9));
  // No duplicates within the view.
  IdSet scratch;
  EXPECT_EQ(node.view().intra_view_duplicates(scratch), 0u);
}

TEST(Newscast, NeverStoresOwnId) {
  Newscast node(3, NewscastConfig{.view_size = 6});
  Rng rng(5);
  CaptureTransport transport;
  Message exchange;
  exchange.from = 1;
  exchange.to = 3;
  exchange.kind = MessageKind::kNewscastExchange;
  exchange.payload = {ViewEntry{1, false}, ViewEntry{3, true}};
  node.on_message(exchange, rng, transport);
  EXPECT_FALSE(node.view().contains(3));
  EXPECT_TRUE(node.view().contains(1));
}

TEST(Newscast, AgesAdvanceWithInitiations) {
  Newscast node(0, NewscastConfig{.view_size = 6});
  node.install_view({1, 2});
  Rng rng(6);
  CaptureTransport transport;
  EXPECT_EQ(node.max_age(), 0u);
  for (int k = 0; k < 4; ++k) node.on_initiate(rng, transport);
  EXPECT_EQ(node.max_age(), 4u);
}

TEST(Newscast, LossImmuneAndConnectedUnderLoss) {
  Rng rng(7);
  constexpr std::size_t kN = 300;
  sim::Cluster cluster(kN, [](NodeId id) {
    return std::make_unique<Newscast>(id, NewscastConfig{.view_size = 12});
  });
  cluster.install_graph(permutation_regular(kN, 6, rng));
  sim::UniformLoss loss(0.10);
  sim::RoundDriver driver(cluster, loss, rng);
  driver.run_rounds(300);
  const auto snap = cluster.snapshot();
  // Views stay full: copies are never deleted at send time.
  double total = 0.0;
  for (NodeId u = 0; u < kN; ++u) {
    total += static_cast<double>(cluster.node(u).view().degree());
  }
  EXPECT_GT(total / kN, 11.0);
  EXPECT_TRUE(is_weakly_connected(snap));
}

TEST(Newscast, DeadNodesAgeOutOfViews) {
  Rng rng(8);
  constexpr std::size_t kN = 300;
  sim::Cluster cluster(kN, [](NodeId id) {
    return std::make_unique<Newscast>(id, NewscastConfig{.view_size = 12});
  });
  cluster.install_graph(permutation_regular(kN, 6, rng));
  sim::UniformLoss loss(0.01);
  sim::RoundDriver driver(cluster, loss, rng);
  driver.run_rounds(200);
  for (NodeId v = 0; v < 30; ++v) cluster.kill(v);
  driver.run_rounds(300);
  std::size_t dead_refs = 0;
  std::size_t refs = 0;
  for (const NodeId u : cluster.live_nodes()) {
    for (const NodeId v : cluster.node(u).view().ids()) {
      ++refs;
      if (!cluster.live(v)) ++dead_refs;
    }
  }
  // The age discipline washes dead descriptors out (they stop being
  // refreshed and lose every youngest-first merge).
  EXPECT_LT(static_cast<double>(dead_refs) / static_cast<double>(refs),
            0.05);
}

}  // namespace
}  // namespace gossip
