// SendForget's §5 extension options: mark & undelete, replace when full
// and batched messages (SendForgetConfig's mark_instead_of_clear,
// replace_when_full and pairs_per_message). The suites are named for the
// extensions: SendForgetExt and SendForgetExtConfig.
#include "core/send_forget.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "analysis/degree_mc.hpp"
#include "core/flat_send_forget.hpp"
#include "graph/digraph.hpp"
#include "graph/graph_gen.hpp"
#include "graph/graph_stats.hpp"
#include "sim/round_driver.hpp"
#include "sim/sharded_driver.hpp"

#include "test_support.hpp"

namespace gossip {
namespace {

using testing::CaptureTransport;

SendForgetConfig base_config() {
  return SendForgetConfig{.view_size = 8, .min_degree = 2};
}

TEST(SendForgetExtConfig, Validation) {
  EXPECT_NO_THROW(base_config().validate());
  auto cfg = base_config();
  cfg.view_size = 7;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = base_config();
  cfg.pairs_per_message = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = base_config();
  cfg.pairs_per_message = 4;  // p = kMaxPairsPerMessage, 8 ids = s
  EXPECT_NO_THROW(cfg.validate());
  cfg.pairs_per_message = 5;  // p > kMaxPairsPerMessage
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = SendForgetConfig{.view_size = 6, .min_degree = 0};
  cfg.pairs_per_message = 3;  // 6 ids = s
  EXPECT_NO_THROW(cfg.validate());
  cfg.pairs_per_message = 4;  // 8 ids > s = 6
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = base_config();
  cfg.min_degree = 4;  // dL <= s - 6 violated
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = base_config();
  cfg.mark_instead_of_clear = true;
  cfg.replace_when_full = true;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(SendForgetExtConfig, FlatEngineRejectsObjectOnlyOptions) {
  auto cfg = default_send_forget_config();
  cfg.mark_instead_of_clear = true;
  EXPECT_THROW(FlatSendForgetCluster(16, cfg), std::invalid_argument);
  cfg = default_send_forget_config();
  cfg.replace_when_full = true;
  EXPECT_THROW(FlatSendForgetCluster(16, cfg), std::invalid_argument);
  cfg = default_send_forget_config();
  cfg.pairs_per_message = 2;
  EXPECT_NO_THROW(FlatSendForgetCluster(16, cfg));
  cfg.pairs_per_message = 5;
  EXPECT_THROW(FlatSendForgetCluster(16, cfg), std::invalid_argument);
}

TEST(SendForgetExt, BaseConfigurationMatchesSendForgetSemantics) {
  // p = 1, no flags: one action clears two slots and sends [u, w].
  SendForget node(5, base_config());
  node.install_view({1, 2, 3, 4});
  Rng rng(1);
  CaptureTransport transport;
  while (transport.sent.empty()) node.on_initiate(rng, transport);
  const Message& m = transport.sent.front();
  ASSERT_EQ(m.payload.size(), 2u);
  EXPECT_EQ(m.payload.front().id, 5u);
  EXPECT_EQ(node.view().degree(), 2u);
  EXPECT_EQ(node.tombstone_count(), 0u);
}

TEST(SendForgetExt, BatchedMessageCarriesMoreIds) {
  auto cfg = base_config();
  cfg.pairs_per_message = 2;  // 4 ids per message
  SendForget node(9, cfg);
  node.install_view({1, 2, 3, 4, 5, 6});
  Rng rng(2);
  CaptureTransport transport;
  while (transport.sent.empty()) node.on_initiate(rng, transport);
  const Message& m = transport.sent.front();
  ASSERT_EQ(m.payload.size(), 4u);
  EXPECT_EQ(m.payload.front().id, 9u);
  // 4 slots consumed.
  EXPECT_EQ(node.view().degree(), 2u);
}

TEST(SendForgetExt, BatchedDuplicationAtThreshold) {
  auto cfg = base_config();
  cfg.pairs_per_message = 2;
  SendForget node(9, cfg);
  node.install_view({1, 2, 3, 4});  // 4 - 4 < dL=2 -> duplicate
  Rng rng(3);
  CaptureTransport transport;
  while (transport.sent.empty()) node.on_initiate(rng, transport);
  EXPECT_EQ(node.view().degree(), 4u);
  EXPECT_EQ(node.metrics().duplications, 1u);
  EXPECT_TRUE(transport.sent.front().payload.front().dependent);
}

TEST(SendForgetExt, MarkModeCreatesTombstones) {
  auto cfg = base_config();
  cfg.mark_instead_of_clear = true;
  SendForget node(7, cfg);
  node.install_view({1, 2, 3, 4});
  Rng rng(4);
  CaptureTransport transport;
  while (transport.sent.empty()) node.on_initiate(rng, transport);
  EXPECT_EQ(node.view().degree(), 2u);
  EXPECT_EQ(node.tombstone_count(), 2u);
  EXPECT_EQ(node.metrics().duplications, 0u);
}

TEST(SendForgetExt, MarkModeUndeletesInsteadOfDuplicating) {
  auto cfg = base_config();
  cfg.mark_instead_of_clear = true;
  SendForget node(7, cfg);
  node.install_view({1, 2, 3, 4});
  Rng rng(5);
  CaptureTransport transport;
  // First effective action: degree 4 -> 2, two tombstones.
  while (transport.sent.empty()) node.on_initiate(rng, transport);
  ASSERT_EQ(node.tombstone_count(), 2u);
  // Second effective action from degree 2 (= dL): would duplicate, but
  // mark mode revives the two tombstones first, then clears.
  transport.sent.clear();
  while (transport.sent.empty()) node.on_initiate(rng, transport);
  EXPECT_EQ(node.undeletions(), 2u);
  EXPECT_EQ(node.metrics().duplications, 0u);
  EXPECT_EQ(node.view().degree(), 2u);
  EXPECT_EQ(node.tombstone_count(), 2u);  // the newly sent pair
  // Revived entries are labeled dependent.
  EXPECT_GE(node.view().dependent_count() + 2u, 2u);
}

TEST(SendForgetExt, MarkModeFallsBackToDuplicationWithoutTombstones) {
  auto cfg = base_config();
  cfg.mark_instead_of_clear = true;
  SendForget node(7, cfg);
  node.install_view({1, 2});  // at dL, no tombstones available
  Rng rng(6);
  CaptureTransport transport;
  while (transport.sent.empty()) node.on_initiate(rng, transport);
  EXPECT_EQ(node.metrics().duplications, 1u);
  EXPECT_EQ(node.view().degree(), 2u);
  EXPECT_EQ(node.undeletions(), 0u);
}

TEST(SendForgetExt, ReceiveReusesTombstonedSlots) {
  auto cfg = base_config();
  cfg.mark_instead_of_clear = true;
  SendForget node(7, cfg);
  node.install_view({1, 2, 3, 4, 5, 6, 8, 9});  // full (8 slots)
  Rng rng(7);
  CaptureTransport transport;
  while (transport.sent.empty()) node.on_initiate(rng, transport);
  ASSERT_EQ(node.tombstone_count(), 2u);
  ASSERT_EQ(node.view().degree(), 6u);
  // Receiving reclaims the tombstoned slots; the stashes die.
  Message m;
  m.from = 3;
  m.to = 7;
  m.kind = MessageKind::kPush;
  m.payload = {ViewEntry{30, false}, ViewEntry{31, false}};
  node.on_message(m, rng, transport);
  EXPECT_EQ(node.view().degree(), 8u);
  EXPECT_EQ(node.tombstone_count(), 0u);
  EXPECT_TRUE(node.view().contains(30));
}

TEST(SendForgetExt, ReplaceWhenFullEvictsInsteadOfDeleting) {
  auto cfg = base_config();
  cfg.replace_when_full = true;
  SendForget node(7, cfg);
  node.install_view({1, 2, 3, 4, 5, 6, 8, 9});
  ASSERT_TRUE(node.view().full());
  Rng rng(8);
  CaptureTransport transport;
  Message m;
  m.from = 3;
  m.to = 7;
  m.kind = MessageKind::kPush;
  m.payload = {ViewEntry{30, false}, ViewEntry{31, false}};
  node.on_message(m, rng, transport);
  EXPECT_TRUE(node.view().contains(30));
  EXPECT_TRUE(node.view().contains(31));
  EXPECT_EQ(node.metrics().ids_accepted, 2u);
  EXPECT_EQ(node.metrics().deletions, 0u);
  EXPECT_TRUE(node.view().full());
}

TEST(SendForgetExt, DegreeInvariantAcrossRandomTraffic) {
  for (const bool mark : {false, true}) {
    for (const bool replace : {false, true}) {
      auto cfg = SendForgetConfig{.view_size = 12,
                                     .min_degree = 4,
                                     .pairs_per_message = 2,
                                     .mark_instead_of_clear = mark,
                                     .replace_when_full = replace};
      SendForget node(0, cfg);
      node.install_view({1, 2, 3, 4, 5, 6});
      Rng rng(100 + (mark ? 1 : 0) + (replace ? 2 : 0));
      CaptureTransport transport;
      for (int i = 0; i < 3000; ++i) {
        if (rng.bernoulli(0.5)) {
          node.on_initiate(rng, transport);
        } else {
          Message m;
          m.from = static_cast<NodeId>(1 + rng.uniform(40));
          m.to = 0;
          m.kind = MessageKind::kPush;
          m.payload = {
              ViewEntry{m.from, false},
              ViewEntry{static_cast<NodeId>(1 + rng.uniform(40)), false}};
          node.on_message(m, rng, transport);
        }
        const auto d = node.view().degree();
        ASSERT_EQ(d % 2, 0u) << "mark=" << mark << " replace=" << replace;
        ASSERT_LE(d, cfg.view_size);
      }
    }
  }
}


TEST(SendForgetExt, BaseConfigStatisticallyMatchesFlatEngine) {
  // With p = 1 and both flags off, the object engine on the round driver
  // and the flat engine on the sharded driver run the same rules under
  // different schedules; they must land on the same steady state.
  const SendForgetConfig cfg{.view_size = 24, .min_degree = 8};
  Rng rng(321);
  const Digraph start = permutation_regular(600, 6, rng);
  const auto object_engine = [&] {
    Rng run_rng(321);
    sim::Cluster cluster(600, [&cfg](NodeId id) {
      return std::make_unique<SendForget>(id, cfg);
    });
    cluster.install_graph(start);
    sim::UniformLoss loss(0.05);
    sim::RoundDriver driver(cluster, loss, run_rng);
    driver.run_rounds(400);
    return degree_summary(cluster.snapshot());
  }();
  const auto flat_engine = [&] {
    FlatSendForgetCluster cluster(600, cfg);
    cluster.install_graph(start);
    sim::ShardedDriver driver(cluster,
                              sim::ShardedDriverConfig{.shard_count = 1,
                                                       .loss_rate = 0.05,
                                                       .seed = 321});
    driver.run_rounds(400);
    Digraph overlay(600);
    for (NodeId u = 0; u < 600; ++u) {
      for (const NodeId v : cluster.view_ids(u)) overlay.add_edge(u, v);
    }
    return degree_summary(overlay);
  }();
  EXPECT_NEAR(object_engine.out_mean, flat_engine.out_mean, 0.4);
  EXPECT_NEAR(object_engine.in_variance, flat_engine.in_variance,
              object_engine.in_variance * 0.3);
}

TEST(SendForgetExt, MarkVariantDegreesMatchBaseDegreeMc) {
  // Undeletion replaces duplication one-for-one in the edge balance, so
  // the *degree* steady state of the mark variant is predicted by the
  // base chain of §6.2.
  analysis::DegreeMcParams params;
  params.view_size = 24;
  params.min_degree = 8;
  params.loss = 0.05;
  const auto mc = analysis::solve_degree_mc(params);

  Rng rng(654);
  sim::Cluster cluster(800, [](NodeId id) {
    return std::make_unique<SendForget>(
        id, SendForgetConfig{.view_size = 24,
                                .min_degree = 8,
                                .mark_instead_of_clear = true});
  });
  cluster.install_graph(permutation_regular(800, 6, rng));
  sim::UniformLoss loss(0.05);
  sim::RoundDriver driver(cluster, loss, rng);
  driver.run_rounds(600);
  const auto summary = degree_summary(cluster.snapshot());
  EXPECT_NEAR(summary.out_mean, mc.expected_out, 0.5);
}

}  // namespace
}  // namespace gossip
