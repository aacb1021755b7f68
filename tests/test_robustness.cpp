// Robustness at trust boundaries and determinism guarantees.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <stdexcept>

#include "analysis/degree_mc.hpp"
#include "core/baselines/newscast.hpp"
#include "core/baselines/push_pull.hpp"
#include "core/baselines/shuffle.hpp"
#include "core/send_forget.hpp"
#include "core/send_forget_row.hpp"
#include "graph/graph_gen.hpp"
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
