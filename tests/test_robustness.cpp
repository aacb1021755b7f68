// Robustness at trust boundaries and determinism guarantees.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "analysis/degree_mc.hpp"
#include "core/baselines/newscast.hpp"
#include "core/baselines/push_pull.hpp"
#include "core/baselines/shuffle.hpp"
#include "core/send_forget.hpp"
#include "core/flat_send_forget.hpp"
#include "core/send_forget_row.hpp"
#include "graph/graph_gen.hpp"
#include "sampling/health.hpp"
#include "sim/cluster.hpp"
#include "sim/cluster_probe.hpp"
#include "sim/event_driver.hpp"
#include "sim/round_driver.hpp"
#include "test_support.hpp"

namespace gossip {
namespace {

using testing::CaptureTransport;

// --------------------------------------------------- malformed messages

TEST(Robustness, SfIgnoresWrongKind) {
  SendForget node(0, SendForgetConfig{.view_size = 6, .min_degree = 0});
  Rng rng(1);
  CaptureTransport transport;
  Message m;
  m.from = 1;
  m.to = 0;
  m.kind = MessageKind::kShuffleRequest;
  m.payload = {ViewEntry{1, false}, ViewEntry{2, false}};
  node.on_message(m, rng, transport);
  EXPECT_EQ(node.view().degree(), 0u);
  EXPECT_EQ(node.metrics().messages_received, 1u);
}

TEST(Robustness, SfIgnoresWrongPayloadSize) {
  SendForget node(0, SendForgetConfig{.view_size = 6, .min_degree = 0});
  Rng rng(2);
  CaptureTransport transport;
  for (const std::size_t size : {0u, 1u, 3u, 5u}) {
    Message m;
    m.from = 1;
    m.to = 0;
    m.kind = MessageKind::kPush;
    for (std::size_t k = 0; k < size; ++k) {
      m.payload.push_back(ViewEntry{static_cast<NodeId>(k + 1), false});
    }
    node.on_message(m, rng, transport);
  }
  EXPECT_EQ(node.view().degree(), 0u);
}

TEST(Robustness, SfIgnoresEmptyEntries) {
  SendForget node(0, SendForgetConfig{.view_size = 6, .min_degree = 0});
  Rng rng(3);
  CaptureTransport transport;
  Message m;
  m.from = 1;
  m.to = 0;
  m.kind = MessageKind::kPush;
  m.payload = {ViewEntry{}, ViewEntry{2, false}};
  node.on_message(m, rng, transport);
  EXPECT_EQ(node.view().degree(), 0u);
}

TEST(Robustness, SfExtIgnoresOddPayloads) {
  SendForget node(0, SendForgetConfig{.view_size = 8,
                                      .min_degree = 2,
                                      .pairs_per_message = 2,
                                      .mark_instead_of_clear = true,
                                      .replace_when_full = true});
  Rng rng(4);
  CaptureTransport transport;
  Message m;
  m.from = 1;
  m.to = 0;
  m.kind = MessageKind::kPush;
  m.payload = {ViewEntry{1, false}, ViewEntry{2, false},
               ViewEntry{3, false}};
  node.on_message(m, rng, transport);
  EXPECT_EQ(node.view().degree(), 0u);
  // Valid payload still accepted afterwards.
  m.payload = {ViewEntry{1, false}, ViewEntry{2, false}};
  node.on_message(m, rng, transport);
  EXPECT_EQ(node.view().degree(), 2u);
}

TEST(Robustness, SfIgnoresPayloadsBeyondTheBatchLimit) {
  SendForget node(0, SendForgetConfig{.view_size = 40, .min_degree = 18});
  Rng rng(5);
  CaptureTransport transport;
  Message m;
  m.from = 1;
  m.to = 0;
  m.kind = MessageKind::kPush;
  for (std::size_t k = 0; k < 2 * kMaxPairsPerMessage + 2; ++k) {
    m.payload.push_back(ViewEntry{static_cast<NodeId>(k + 1), false});
  }
  node.on_message(m, rng, transport);
  EXPECT_EQ(node.view().degree(), 0u);
  // The largest batch still fits.
  m.payload.resize(2 * kMaxPairsPerMessage);
  node.on_message(m, rng, transport);
  EXPECT_EQ(node.view().degree(), 2 * kMaxPairsPerMessage);
  EXPECT_EQ(node.metrics().messages_received, 2u);
}

TEST(Robustness, SfIgnoresIdsThePackedRowCannotHold) {
  SendForget node(0, SendForgetConfig{.view_size = 6, .min_degree = 0});
  Rng rng(6);
  CaptureTransport transport;
  Message m;
  m.from = 1;
  m.to = 0;
  m.kind = MessageKind::kPush;
  for (const NodeId bad : {PackedViewEntry::kMaxId + 1, NodeId{0xFFFF'FFFEu}}) {
    m.payload = {ViewEntry{1, false}, ViewEntry{bad, false}};
    node.on_message(m, rng, transport);
    EXPECT_EQ(node.view().degree(), 0u) << bad;
  }
  // The largest packable id is accepted.
  m.payload = {ViewEntry{1, false}, ViewEntry{PackedViewEntry::kMaxId, true}};
  node.on_message(m, rng, transport);
  EXPECT_EQ(node.view().degree(), 2u);
  EXPECT_TRUE(node.view().contains(PackedViewEntry::kMaxId));
}

TEST(Robustness, ViewRejectsIdsThePackedRowCannotHold) {
  LocalView view(6);
  EXPECT_THROW(view.set(0, ViewEntry{PackedViewEntry::kMaxId + 1, false}),
               std::invalid_argument);
  EXPECT_THROW(view.set(0, ViewEntry{kNilNode, false}),
               std::invalid_argument);
  EXPECT_EQ(view.degree(), 0u);
  EXPECT_TRUE(view.slot_empty(0));
  view.set(0, ViewEntry{PackedViewEntry::kMaxId, true});
  EXPECT_EQ(view.entry(0), (ViewEntry{PackedViewEntry::kMaxId, true}));
  EXPECT_EQ(view.degree(), 1u);
  // Installing a view goes through the same check.
  SendForget node(0, SendForgetConfig{.view_size = 6, .min_degree = 0});
  EXPECT_THROW(node.install_view({1, PackedViewEntry::kMaxId + 1}),
               std::invalid_argument);
  EXPECT_THROW(SendForget(PackedViewEntry::kMaxId + 1,
                          SendForgetConfig{.view_size = 6, .min_degree = 0}),
               std::invalid_argument);
}

TEST(Robustness, BaselinesSkipIdsThePackedRowCannotHold) {
  Shuffle shuffle(0, ShuffleConfig{.view_size = 8, .shuffle_length = 3});
  PushPullKeep push_pull(0, PushPullConfig{.view_size = 8,
                                           .exchange_length = 3});
  Newscast newscast(0, NewscastConfig{.view_size = 8});
  const std::pair<PeerProtocol*, MessageKind> cases[] = {
      {&shuffle, MessageKind::kShuffleRequest},
      {&push_pull, MessageKind::kPushPullRequest},
      {&newscast, MessageKind::kNewscastExchange}};
  for (const auto& [node, kind] : cases) {
    node->install_view({1, 2});
    Rng rng(8);
    CaptureTransport transport;
    Message m;
    m.from = 1;
    m.to = 0;
    m.kind = kind;
    m.payload = {ViewEntry{PackedViewEntry::kMaxId + 1, false},
                 ViewEntry{5, false}};
    EXPECT_NO_THROW(node->on_message(m, rng, transport));
    EXPECT_TRUE(node->view().contains(5));
  }
}

// The flat engine rejects ids of nodes it does not have at install time,
// leaving the row untouched: a Release build would otherwise store
// 0xFFFFFFFE as id 2147483646 tagged dependent.
TEST(Robustness, FlatInstallRejectsIdsOutsideTheCluster) {
  FlatSendForgetCluster cluster(4, SendForgetConfig{.view_size = 6,
                                                    .min_degree = 0});
  cluster.install_view(0, {1, 2});
  for (const NodeId bad : {NodeId{4}, PackedViewEntry::kMaxId,
                           NodeId{0xFFFF'FFFEu}, kNilNode}) {
    EXPECT_THROW(cluster.install_view(0, {bad, 1}), std::invalid_argument)
        << bad;
    EXPECT_THROW(cluster.install_slot(0, 5, bad), std::invalid_argument)
        << bad;
  }
  EXPECT_EQ(cluster.view_ids(0), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(cluster.degree(0), 2u);
  // Ids past the row's capacity are truncated, not checked.
  cluster.install_view(1, {0, 2, 3, 3, 2, 0, 4});
  EXPECT_EQ(cluster.degree(1), 6u);
  cluster.install_slot(2, 5, 3);
  EXPECT_EQ(cluster.view_ids(2), (std::vector<NodeId>{3}));
}

// A LocalView may hold any packable id (SendForget::on_message accepts ids
// up to PackedViewEntry::kMaxId), including ids of nodes the cluster does
// not have. The object-engine probe counts them as occupied (and
// dependent) slots but toward no node's in-degree.
TEST(Robustness, ObjectProbeIgnoresIdsOutsideTheCluster) {
  const SendForgetConfig cfg{.view_size = 6, .min_degree = 0};
  sim::Cluster cluster(3, [&](NodeId id) {
    return std::make_unique<SendForget>(id, cfg);
  });
  Rng rng(9);
  CaptureTransport transport;
  const auto push = [&](NodeId to, ViewEntry a, ViewEntry b) {
    Message m;
    m.from = 1;
    m.to = to;
    m.kind = MessageKind::kPush;
    m.payload = {a, b};
    cluster.node(to).on_message(m, rng, transport);
  };
  push(0, ViewEntry{1, false}, ViewEntry{1'000'000, true});
  push(0, ViewEntry{PackedViewEntry::kMaxId, false}, ViewEntry{2, true});
  push(1, ViewEntry{0, false}, ViewEntry{2, false});
  ASSERT_EQ(cluster.node(0).view().degree(), 4u);
  std::vector<std::uint32_t> occurrences;
  const obs::FlatClusterProbe probe =
      sim::probe_cluster(cluster, &occurrences);
  EXPECT_EQ(occurrences, (std::vector<std::uint32_t>{1, 1, 2}));
  EXPECT_EQ(probe.occupied_slots, 6u);
  EXPECT_EQ(probe.dependent_entries, 2u);
  EXPECT_EQ(probe.indegree.max, 2u);
  EXPECT_EQ(probe.indegree_hist, (std::vector<std::uint64_t>{
                                     0, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}));
}

// The membership-graph snapshot follows the probe's rule: an id the
// cluster does not have names no vertex, so it gives no edge. Writing it
// would index the graph's in-degree array out of bounds (Digraph::add_edge
// only asserts), through measure_health as well as directly.
TEST(Robustness, SnapshotIgnoresIdsOutsideTheCluster) {
  const SendForgetConfig cfg{.view_size = 6, .min_degree = 0};
  sim::Cluster cluster(4, [&](NodeId id) {
    return std::make_unique<SendForget>(id, cfg);
  });
  Rng rng(10);
  CaptureTransport transport;
  Message m;
  m.from = 2;
  m.to = 0;
  m.kind = MessageKind::kPush;
  m.payload = {ViewEntry{1, false}, ViewEntry{1'000'000, false}};
  cluster.node(0).on_message(m, rng, transport);
  ASSERT_EQ(cluster.node(0).view().degree(), 2u);

  const Digraph g = cluster.snapshot();
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(std::vector<NodeId>(g.out_neighbors(0).begin(),
                                g.out_neighbors(0).end()),
            (std::vector<NodeId>{1}));
  EXPECT_EQ(g.in_degree(1), 1u);

  const sampling::HealthReport report =
      sampling::measure_health(cluster, /*with_spectral=*/true);
  EXPECT_EQ(report.edges, 2u);
  EXPECT_FALSE(report.connected);
}

TEST(Robustness, SfOddDegreeViewDeletesWhatDoesNotFit) {
  // An installed odd-degree view (outside Obs 5.1) has one empty slot: a
  // two-id push fills it and the other id is deleted.
  SendForget node(0, SendForgetConfig{.view_size = 6, .min_degree = 0});
  node.install_view({1, 2, 3, 4, 5});
  Rng rng(7);
  CaptureTransport transport;
  Message m;
  m.from = 1;
  m.to = 0;
  m.kind = MessageKind::kPush;
  m.payload = {ViewEntry{8, false}, ViewEntry{9, false}};
  node.on_message(m, rng, transport);
  EXPECT_TRUE(node.view().full());
  EXPECT_TRUE(node.view().contains(8));
  EXPECT_FALSE(node.view().contains(9));
  EXPECT_EQ(node.metrics().ids_accepted, 1u);
  EXPECT_EQ(node.metrics().deletions, 1u);
}

// --------------------------------------------------------- determinism

TEST(Robustness, RoundDriverIsSeedDeterministic) {
  auto run = [](std::uint64_t seed) {
    Rng rng(seed);
    sim::Cluster cluster(200, [](NodeId id) {
      return std::make_unique<SendForget>(
          id, SendForgetConfig{.view_size = 16, .min_degree = 6});
    });
    cluster.install_graph(permutation_regular(200, 4, rng));
    sim::UniformLoss loss(0.05);
    sim::RoundDriver driver(cluster, loss, rng);
    driver.run_rounds(100);
    return cluster.snapshot();
  };
  EXPECT_TRUE(run(42) == run(42));
  EXPECT_FALSE(run(42) == run(43));
}

TEST(Robustness, EventDriverIsSeedDeterministic) {
  auto run = [](std::uint64_t seed) {
    Rng rng(seed);
    sim::Cluster cluster(100, [](NodeId id) {
      return std::make_unique<SendForget>(
          id, SendForgetConfig{.view_size = 16, .min_degree = 6});
    });
    cluster.install_graph(permutation_regular(100, 4, rng));
    sim::UniformLoss loss(0.02);
    sim::EventDriver driver(cluster, loss, rng);
    driver.run_rounds(60);
    return cluster.snapshot();
  };
  EXPECT_TRUE(run(7) == run(7));
}

TEST(Robustness, DegreeMcIsDeterministic) {
  // The numeric pipeline has no hidden RNG: repeated solves are identical.
  analysis::DegreeMcParams p;
  p.view_size = 40;
  p.min_degree = 18;
  p.loss = 0.05;
  const auto a = analysis::solve_degree_mc(p);
  const auto b = analysis::solve_degree_mc(p);
  ASSERT_EQ(a.stationary.size(), b.stationary.size());
  for (std::size_t k = 0; k < a.stationary.size(); ++k) {
    EXPECT_DOUBLE_EQ(a.stationary[k], b.stationary[k]);
  }
}

}  // namespace
}  // namespace gossip
