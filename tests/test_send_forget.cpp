#include "core/send_forget.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/flat_send_forget.hpp"
#include "test_support.hpp"

namespace gossip {
namespace {

using testing::CaptureTransport;

SendForgetConfig small_config() {
  return SendForgetConfig{.view_size = 6, .min_degree = 0};
}

TEST(SendForgetConfig, ValidationRules) {
  EXPECT_NO_THROW(default_send_forget_config().validate());
  EXPECT_NO_THROW((SendForgetConfig{.view_size = 6, .min_degree = 0}.validate()));
  // s must be >= 6 (§5 footnote).
  EXPECT_THROW((SendForgetConfig{.view_size = 4, .min_degree = 0}.validate()),
               std::invalid_argument);
  // s must be even.
  EXPECT_THROW((SendForgetConfig{.view_size = 7, .min_degree = 0}.validate()),
               std::invalid_argument);
  // dL must be even.
  EXPECT_THROW((SendForgetConfig{.view_size = 40, .min_degree = 17}.validate()),
               std::invalid_argument);
  // dL <= s - 6.
  EXPECT_THROW((SendForgetConfig{.view_size = 40, .min_degree = 36}.validate()),
               std::invalid_argument);
  EXPECT_NO_THROW((SendForgetConfig{.view_size = 40, .min_degree = 34}.validate()));
}

TEST(SendForget, DefaultConfigIsPapersExample) {
  const auto cfg = default_send_forget_config();
  EXPECT_EQ(cfg.view_size, 40u);   // s = 40
  EXPECT_EQ(cfg.min_degree, 18u);  // dL = 18
}

TEST(SendForget, EmptyViewActionIsSelfLoop) {
  SendForget node(0, small_config());
  Rng rng(1);
  CaptureTransport transport;
  node.on_initiate(rng, transport);
  EXPECT_TRUE(transport.sent.empty());
  EXPECT_EQ(node.metrics().actions_initiated, 1u);
  EXPECT_EQ(node.metrics().self_loop_actions, 1u);
  EXPECT_EQ(node.metrics().messages_sent, 0u);
}

TEST(SendForget, PartialViewCanSelfLoop) {
  // With 2 of 6 slots filled, most actions pick an empty slot.
  SendForget node(0, small_config());
  node.install_view({1, 2});
  Rng rng(2);
  CaptureTransport transport;
  int self_loops = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto before = node.metrics().self_loop_actions;
    node.on_initiate(rng, transport);
    if (node.metrics().self_loop_actions > before) ++self_loops;
    // Refill in case the action consumed the entries.
    node.install_view({1, 2});
  }
  // P(self-loop) = 1 - (2/6)(1/5) = 14/15.
  EXPECT_NEAR(self_loops / 1000.0, 14.0 / 15.0, 0.04);
}

TEST(SendForget, ActionSendsSelfAndCarriedIdAndClearsSlots) {
  // dL = 0 and degree 2 > 0: slots must be cleared (no duplication).
  SendForget node(5, small_config());
  node.install_view({1, 2});
  Rng rng(3);
  CaptureTransport transport;
  // Loop until a non-self-loop action happens.
  while (transport.sent.empty()) {
    node.on_initiate(rng, transport);
  }
  ASSERT_EQ(transport.sent.size(), 1u);
  const Message& m = transport.sent.front();
  EXPECT_EQ(m.from, 5u);
  EXPECT_EQ(m.kind, MessageKind::kPush);
  ASSERT_EQ(m.payload.size(), 2u);
  // Payload is [u, w]: the sender's own id plus the carried id.
  EXPECT_EQ(m.payload[0].id, 5u);
  // Target is one view id and the carried id is the other.
  EXPECT_TRUE((m.to == 1 && m.payload[1].id == 2) ||
              (m.to == 2 && m.payload[1].id == 1));
  // Both slots cleared: degree dropped to 0.
  EXPECT_EQ(node.view().degree(), 0u);
  // No duplication happened, so the payload is tagged independent.
  EXPECT_FALSE(m.payload[0].dependent);
  EXPECT_FALSE(m.payload[1].dependent);
  EXPECT_EQ(node.metrics().duplications, 0u);
}

TEST(SendForget, DuplicatesAtMinDegree) {
  SendForgetConfig cfg{.view_size = 8, .min_degree = 2};
  SendForget node(9, cfg);
  node.install_view({1, 2});  // degree 2 == dL -> duplication
  Rng rng(4);
  CaptureTransport transport;
  while (transport.sent.empty()) {
    node.on_initiate(rng, transport);
  }
  // Entries kept.
  EXPECT_EQ(node.view().degree(), 2u);
  EXPECT_EQ(node.metrics().duplications, 1u);
  // Duplication creates dependent instances in flight.
  EXPECT_TRUE(transport.sent.front().payload[0].dependent);
  EXPECT_TRUE(transport.sent.front().payload[1].dependent);
}

TEST(SendForget, ReceiveStoresBothIds) {
  SendForget node(0, small_config());
  Rng rng(5);
  CaptureTransport transport;
  Message m;
  m.from = 3;
  m.to = 0;
  m.kind = MessageKind::kPush;
  m.payload = {ViewEntry{3, false}, ViewEntry{7, true}};
  node.on_message(m, rng, transport);
  EXPECT_EQ(node.view().degree(), 2u);
  EXPECT_TRUE(node.view().contains(3));
  EXPECT_TRUE(node.view().contains(7));
  // Dependence tags preserved on arrival.
  EXPECT_EQ(node.view().dependent_count(), 1u);
  EXPECT_EQ(node.metrics().ids_accepted, 2u);
  EXPECT_EQ(node.metrics().deletions, 0u);
  EXPECT_TRUE(transport.sent.empty());  // S&F never replies
}

TEST(SendForget, ReceiveWhenFullDeletes) {
  SendForget node(0, small_config());
  node.install_view({1, 2, 3, 4, 5, 6});
  ASSERT_TRUE(node.view().full());
  Rng rng(6);
  CaptureTransport transport;
  Message m;
  m.from = 7;
  m.to = 0;
  m.kind = MessageKind::kPush;
  m.payload = {ViewEntry{7, false}, ViewEntry{8, false}};
  node.on_message(m, rng, transport);
  EXPECT_EQ(node.view().degree(), 6u);
  EXPECT_FALSE(node.view().contains(7));
  EXPECT_EQ(node.metrics().deletions, 1u);
  EXPECT_EQ(node.metrics().ids_accepted, 0u);
}

TEST(SendForget, ReceivingOwnIdCreatesDependentSelfEdge) {
  SendForget node(4, small_config());
  Rng rng(7);
  CaptureTransport transport;
  Message m;
  m.from = 1;
  m.to = 4;
  m.kind = MessageKind::kPush;
  m.payload = {ViewEntry{1, false}, ViewEntry{4, false}};
  node.on_message(m, rng, transport);
  EXPECT_TRUE(node.view().contains(4));
  // Self-edges are labeled dependent (§2).
  for (const auto& e : node.view().entries()) {
    if (e.id == 4) {
      EXPECT_TRUE(e.dependent);
    }
  }
}

TEST(SendForget, OutdegreeInvariantUnderRandomChurnOfMessages) {
  // Observation 5.1: d(u) stays even and within [dL, s] — including under
  // arbitrary interleavings of initiate and receive.
  SendForgetConfig cfg{.view_size = 10, .min_degree = 4};
  SendForget node(0, cfg);
  node.install_view({1, 2, 3, 4});
  Rng rng(8);
  CaptureTransport transport;
  for (int i = 0; i < 5000; ++i) {
    if (rng.bernoulli(0.5)) {
      node.on_initiate(rng, transport);
    } else {
      Message m;
      m.from = static_cast<NodeId>(1 + rng.uniform(50));
      m.to = 0;
      m.kind = MessageKind::kPush;
      m.payload = {ViewEntry{m.from, false},
                   ViewEntry{static_cast<NodeId>(1 + rng.uniform(50)), false}};
      node.on_message(m, rng, transport);
    }
    const auto d = node.view().degree();
    ASSERT_EQ(d % 2, 0u);
    ASSERT_GE(d, cfg.min_degree);
    ASSERT_LE(d, cfg.view_size);
  }
  // Both modes were exercised.
  EXPECT_GT(node.metrics().duplications, 0u);
  EXPECT_GT(node.metrics().deletions, 0u);
}

TEST(SendForget, ConstructorRejectsBadConfig) {
  EXPECT_THROW(SendForget(0, SendForgetConfig{.view_size = 5, .min_degree = 0}),
               std::invalid_argument);
}

// Drives n SendForget objects by hand next to one FlatSendForgetCluster:
// the same initiator and loss schedule, cloned protocol RNG streams. The
// two engines share their rules, so after every step the outcome, the
// message, and the degree and row of each node touched must be equal; any
// divergence in a slot draw desynchronizes the streams for good.
void expect_lockstep_with_flat_engine(std::size_t pairs) {
  const std::size_t n = 600;
  const SendForgetConfig cfg{.view_size = 40,
                             .min_degree = 18,
                             .pairs_per_message = pairs};
  FlatSendForgetCluster flat(n, cfg);
  std::vector<std::unique_ptr<SendForget>> nodes;
  for (NodeId u = 0; u < n; ++u) {
    nodes.push_back(std::make_unique<SendForget>(u, cfg));
  }
  // A circulant dL-regular start, with a block of full views so the
  // d(u) = s deletion path runs early.
  for (NodeId u = 0; u < n; ++u) {
    std::vector<NodeId> ids;
    const std::size_t degree = u < 64 ? cfg.view_size : cfg.min_degree;
    for (std::size_t j = 0; j < degree; ++j) {
      ids.push_back(static_cast<NodeId>((u + j + 1) % n));
    }
    flat.install_view(u, ids);
    nodes[u]->install_view(ids);
  }
  const auto expect_same_row = [&](NodeId u) {
    const LocalView& view = nodes[u]->view();
    ASSERT_EQ(view.degree(), flat.degree(u)) << "node " << u;
    for (std::size_t i = 0; i < cfg.view_size; ++i) {
      ASSERT_EQ(view.entry(i), flat.slots(u)[i].unpack())
          << "node " << u << " slot " << i;
    }
  };

  Rng schedule(5);  // who initiates and what is lost: not a protocol draw
  Rng flat_rng(424242);
  Rng object_rng = flat_rng;
  CaptureTransport transport;
  std::uint64_t sent = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t deletions = 0;
  for (int step = 0; step < 100'000; ++step) {
    const auto u = static_cast<NodeId>(schedule.uniform(n));
    FlatPush push;
    const FlatInitiateResult result = flat.initiate(u, flat_rng, push);
    const ProtocolMetrics before = nodes[u]->metrics();
    transport.sent.clear();
    nodes[u]->on_initiate(object_rng, transport);
    const ProtocolMetrics& after = nodes[u]->metrics();
    ASSERT_EQ(after.self_loop_actions - before.self_loop_actions,
              result == FlatInitiateResult::kSelfLoop ? 1u : 0u);
    ASSERT_EQ(after.duplications - before.duplications,
              result == FlatInitiateResult::kSentDuplicated ? 1u : 0u);
    ASSERT_NO_FATAL_FAILURE(expect_same_row(u));
    if (result == FlatInitiateResult::kSelfLoop) {
      ASSERT_TRUE(transport.sent.empty());
      continue;
    }
    ++sent;
    if (result == FlatInitiateResult::kSentDuplicated) ++duplicated;
    ASSERT_EQ(transport.sent.size(), 1u);
    const Message& message = transport.sent.front();
    ASSERT_EQ(message.to, push.to);
    ASSERT_EQ(message.payload.size(), push.count);
    ASSERT_EQ(push.count, 2 * pairs);
    for (std::size_t k = 0; k < push.count; ++k) {
      ASSERT_EQ(message.payload[k], push.ids[k].unpack());
    }
    if (schedule.bernoulli(0.05)) continue;
    const NodeId v = push.to;
    const std::size_t accepted = flat.receive(v, push, flat_rng);
    const ProtocolMetrics received_before = nodes[v]->metrics();
    nodes[v]->on_message(message, object_rng, transport);
    const ProtocolMetrics& received_after = nodes[v]->metrics();
    ASSERT_EQ(received_after.ids_accepted - received_before.ids_accepted,
              accepted);
    const bool deleted = accepted < push.count;
    ASSERT_EQ(received_after.deletions - received_before.deletions,
              deleted ? 1u : 0u);
    if (deleted) ++deletions;
    ASSERT_NO_FATAL_FAILURE(expect_same_row(v));
  }
  // The run must have exercised every interesting path.
  EXPECT_GT(sent, 10'000u);
  EXPECT_GT(duplicated, 0u);
  EXPECT_GT(deletions, 0u);
  for (NodeId u = 0; u < n; ++u) ASSERT_NO_FATAL_FAILURE(expect_same_row(u));
}

TEST(SendForget, LockstepWithFlatEngine) {
  expect_lockstep_with_flat_engine(1);
}

TEST(SendForget, BatchedLockstepWithFlatEngine) {
  expect_lockstep_with_flat_engine(2);
}

}  // namespace
}  // namespace gossip
