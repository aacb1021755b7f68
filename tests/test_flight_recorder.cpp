// Flight recorder: ring semantics, message-id threading, the binary dump
// round-trip, and the non-perturbation contract — attaching a recorder to
// any driver must leave the run bit-identical (it draws no RNG).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/flat_send_forget.hpp"
#include "core/send_forget.hpp"
#include "graph/graph_gen.hpp"
#include "obs/oracle/flight_recorder.hpp"
#include "sim/event_driver.hpp"
#include "sim/round_driver.hpp"
#include "sim/sharded_driver.hpp"

namespace gossip {
namespace {

using obs::FlightEvent;
using obs::FlightEventKind;
using obs::FlightRecorder;
using obs::FlightTrace;

FlightEvent make_event(std::uint64_t id, std::uint32_t round, NodeId node,
                       NodeId peer, FlightEventKind kind) {
  return FlightEvent{id, round, node, peer, kind, 0, 0};
}

TEST(FlightRecorder, RingKeepsLastCapacityEvents) {
  FlightRecorder recorder(1, /*capacity=*/8);
  ASSERT_EQ(recorder.capacity(), 8u);
  for (std::uint32_t i = 0; i < 20; ++i) {
    recorder.record(0, make_event(0, i, i, kNilNode,
                                  FlightEventKind::kSelfLoop));
  }
  EXPECT_EQ(recorder.recorded(0), 20u);
  EXPECT_EQ(recorder.dropped(0), 12u);
  const std::vector<FlightEvent> kept = recorder.shard_events(0);
  ASSERT_EQ(kept.size(), 8u);
  // Oldest retained first: rounds 12..19.
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].round, 12u + i);
  }
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder recorder(2, /*capacity=*/100);
  EXPECT_EQ(recorder.capacity(), 128u);
}

TEST(FlightRecorder, MessageIdsArePerShardAndNeverZero) {
  FlightRecorder recorder(3);
  const std::uint64_t a = recorder.begin_message(0);
  const std::uint64_t b = recorder.begin_message(0);
  const std::uint64_t c = recorder.begin_message(2);
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(FlightRecorder::message_shard(a), 0u);
  EXPECT_EQ(FlightRecorder::message_shard(c), 2u);
  // Deterministic: a fresh recorder reissues the same sequence.
  FlightRecorder again(3);
  EXPECT_EQ(again.begin_message(0), a);
}

TEST(FlightTrace, DumpLoadRoundTripPreservesEventsAndDrops) {
  FlightRecorder recorder(2, /*capacity=*/8);
  for (std::uint32_t i = 0; i < 12; ++i) {  // shard 0 wraps (4 dropped)
    recorder.record(0, make_event(i + 1, i, 10, 20, FlightEventKind::kSend));
  }
  recorder.record(1, make_event(3, 2, 20, 10, FlightEventKind::kDeliver));

  std::stringstream buffer;
  recorder.dump(buffer);
  FlightTrace trace;
  ASSERT_TRUE(trace.load(buffer));
  EXPECT_EQ(trace.shard_count(), 2u);
  EXPECT_EQ(trace.dropped(0), 4u);
  EXPECT_EQ(trace.dropped(1), 0u);
  EXPECT_EQ(trace.total_dropped(), 4u);
  ASSERT_EQ(trace.events().size(), 9u);  // 8 kept on shard 0 + 1 on shard 1
  // Global order is (round, shard, intra-shard order).
  for (std::size_t i = 1; i < trace.events().size(); ++i) {
    EXPECT_LE(trace.events()[i - 1].round, trace.events()[i].round);
  }
  // Round order puts shard 1's round-2 delivery first, ahead of shard 0's
  // retained sends (rounds 4..11).
  EXPECT_EQ(trace.events().front().kind, FlightEventKind::kDeliver);
  const std::string first = FlightTrace::format_event(trace.events().front());
  EXPECT_NE(first.find("deliver"), std::string::npos);
  const std::string last = FlightTrace::format_event(trace.events().back());
  EXPECT_NE(last.find("send"), std::string::npos);
}

TEST(FlightTrace, RejectsMalformedDumps) {
  std::stringstream garbage("not a flight dump at all");
  FlightTrace trace;
  EXPECT_FALSE(trace.load(garbage));
  EXPECT_TRUE(trace.events().empty());
  EXPECT_FALSE(trace.last_error().empty());
}

TEST(FlightTrace, EveryByteChoppedPrefixFailsCleanly) {
  // Regression for the hardened loader: a dump truncated at ANY byte
  // offset must load() == false with a diagnostic in last_error(), leave
  // no partial events behind, and never crash — not just the
  // garbage-magic case above.
  FlightRecorder recorder(2, /*capacity=*/8);
  for (std::uint32_t i = 0; i < 12; ++i) {
    recorder.record(0, make_event(i + 1, i, 10, 20, FlightEventKind::kSend));
  }
  recorder.record(1, make_event(3, 2, 20, 10, FlightEventKind::kDeliver));
  std::stringstream buffer;
  recorder.dump(buffer);
  const std::string full = buffer.str();
  ASSERT_GT(full.size(), 16u);

  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::stringstream chopped(full.substr(0, cut));
    FlightTrace trace;
    EXPECT_FALSE(trace.load(chopped)) << "prefix of " << cut << " bytes";
    EXPECT_TRUE(trace.events().empty()) << "prefix of " << cut << " bytes";
    EXPECT_FALSE(trace.last_error().empty())
        << "prefix of " << cut << " bytes";
  }
  // The untruncated dump still loads (the loop above didn't poison
  // anything global).
  std::stringstream intact(full);
  FlightTrace trace;
  ASSERT_TRUE(trace.load(intact));
  EXPECT_TRUE(trace.last_error().empty());
  EXPECT_EQ(trace.events().size(), 9u);
}

TEST(FlightTrace, TrailingGarbageAfterDumpIsRejected) {
  FlightRecorder recorder(1, /*capacity=*/8);
  recorder.record(0, make_event(1, 4, 10, 20, FlightEventKind::kSend));
  std::stringstream buffer;
  recorder.dump(buffer);
  const std::string padded = buffer.str() + "extra bytes";
  std::stringstream in(padded);
  FlightTrace trace;
  EXPECT_FALSE(trace.load(in));
  EXPECT_FALSE(trace.last_error().empty());
}

TEST(FlightTrace, MessageLifecycleThreadsAcrossShards) {
  FlightRecorder recorder(2);
  const std::uint64_t id = recorder.begin_message(0);
  recorder.record(0, make_event(id, 5, 1, 9, FlightEventKind::kSend));
  // Delivery lands on the receiver's shard but names the sender's id.
  recorder.record(1, make_event(id, 5, 9, 1, FlightEventKind::kDeliver));
  recorder.record(1, make_event(0, 5, 9, kNilNode,
                                FlightEventKind::kSelfLoop));

  std::stringstream buffer;
  recorder.dump(buffer);
  FlightTrace trace;
  ASSERT_TRUE(trace.load(buffer));
  const std::vector<FlightEvent> life = trace.message_lifecycle(id);
  ASSERT_EQ(life.size(), 2u);
  EXPECT_EQ(life[0].kind, FlightEventKind::kSend);
  EXPECT_EQ(life[1].kind, FlightEventKind::kDeliver);
  EXPECT_EQ(life[1].shard, 1u);
  // message_lifecycle(0) must not sweep up no-message events.
  EXPECT_TRUE(trace.message_lifecycle(0).empty());
}

TEST(FlightTrace, NodeHistoryNamesActorAndPeer) {
  FlightRecorder recorder(1);
  recorder.record(0, make_event(1, 1, 7, 3, FlightEventKind::kSend));
  recorder.record(0, make_event(2, 2, 4, 7, FlightEventKind::kSend));
  recorder.record(0, make_event(0, 3, 5, kNilNode, FlightEventKind::kKill));
  std::stringstream buffer;
  recorder.dump(buffer);
  FlightTrace trace;
  ASSERT_TRUE(trace.load(buffer));
  EXPECT_EQ(trace.node_history(7).size(), 2u);  // actor once, peer once
  EXPECT_EQ(trace.node_history(5).size(), 1u);
  EXPECT_TRUE(trace.node_history(6).empty());
}

// ---------------------------------------------------------------------------
// Non-perturbation: recording draws no RNG, so the run is bit-identical.
// ---------------------------------------------------------------------------

// One sharded run with loss and churn (the test_sharded_driver schedule);
// with `recorder` non-null it is attached before the rounds run.
std::uint64_t sharded_fingerprint(std::size_t n, std::size_t shards,
                                  std::uint64_t seed,
                                  FlightRecorder* recorder) {
  FlatSendForgetCluster cluster(n, default_send_forget_config());
  Rng graph_rng(21);
  cluster.install_graph(permutation_regular(n, 18, graph_rng));
  sim::ShardedDriver driver(
      cluster, sim::ShardedDriverConfig{
                   .shard_count = shards, .loss_rate = 0.05, .seed = seed});
  driver.attach_flight_recorder(recorder);
  Rng churn_picks(seed ^ 0xABCD);
  std::vector<NodeId> dead;
  for (int batch = 0; batch < 8; ++batch) {
    driver.run_rounds(3);
    const auto victim =
        static_cast<NodeId>(churn_picks.uniform(cluster.size()));
    if (cluster.live(victim) && cluster.live_count() > n / 2) {
      driver.kill(victim);
      dead.push_back(victim);
    }
    if (!dead.empty()) {
      driver.revive(dead.back());
      dead.pop_back();
    }
  }
  return cluster.fingerprint() ^ (driver.actions_executed() * 0x9E37ULL) ^
         driver.network_metrics().delivered;
}

TEST(FlightRecorderIntegration, ShardedRunBitIdenticalWithRecorderAttached) {
  const std::uint64_t bare = sharded_fingerprint(1024, 4, 77, nullptr);
  FlightRecorder recorder(4);
  const std::uint64_t recorded = sharded_fingerprint(1024, 4, 77, &recorder);
  EXPECT_EQ(bare, recorded);
  EXPECT_GT(recorder.total_recorded(), 0u);
}

TEST(FlightRecorderIntegration, ShardedRunCapturesProtocolAndChurnEvents) {
  FlightRecorder recorder(2, /*capacity=*/1u << 18);  // no wrap
  sharded_fingerprint(512, 2, 5, &recorder);
  std::stringstream buffer;
  recorder.dump(buffer);
  FlightTrace trace;
  ASSERT_TRUE(trace.load(buffer));
  ASSERT_EQ(trace.total_dropped(), 0u);

  // The sharded driver resolves fates inline, so it emits no kSend (and no
  // kSelfLoop) events — only message fates and churn reach the ring.
  bool saw_kill = false;
  std::uint64_t fate_id = 0;
  for (const FlightEvent& e : trace.events()) {
    if (e.kind == FlightEventKind::kKill) saw_kill = true;
    EXPECT_NE(e.kind, FlightEventKind::kSend);
    EXPECT_NE(e.kind, FlightEventKind::kSelfLoop);
    if (fate_id == 0 && (e.kind == FlightEventKind::kDeliver ||
                         e.kind == FlightEventKind::kLose ||
                         e.kind == FlightEventKind::kToDead)) {
      fate_id = e.message_id;
    }
  }
  EXPECT_TRUE(saw_kill);
  ASSERT_NE(fate_id, 0u);
  // A message's lifecycle is its fate events: exactly one terminal network
  // outcome, optionally preceded by a duplicate / followed by a delete.
  const std::vector<FlightEvent> life = trace.message_lifecycle(fate_id);
  ASSERT_GE(life.size(), 1u);
  std::size_t terminal = 0;
  for (const FlightEvent& e : life) {
    if (e.kind == FlightEventKind::kDeliver ||
        e.kind == FlightEventKind::kLose ||
        e.kind == FlightEventKind::kToDead) {
      ++terminal;
    } else {
      EXPECT_TRUE(e.kind == FlightEventKind::kDuplicate ||
                  e.kind == FlightEventKind::kDelete);
    }
  }
  EXPECT_EQ(terminal, 1u);
}

TEST(FlightRecorderIntegration, RoundDriverEventsMatchNetworkMetrics) {
  const std::size_t n = 100;
  Rng rng(13);
  sim::Cluster cluster(n, [](NodeId id) {
    return std::make_unique<SendForget>(id, default_send_forget_config());
  });
  cluster.install_graph(permutation_regular(n, 18, rng));
  sim::UniformLoss loss(0.1);
  sim::RoundDriver driver(cluster, loss, rng);
  FlightRecorder recorder(1, /*capacity=*/1u << 16);  // no wrap
  driver.attach_flight_recorder(&recorder);
  driver.run_rounds(20);

  std::uint64_t losses = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t to_dead = 0;
  std::uint32_t max_round = 0;
  for (const FlightEvent& e : recorder.shard_events(0)) {
    switch (e.kind) {
      // Inline drivers emit no kSend: the fate events below carry the same
      // fields, so fates must partition the sent count exactly.
      case FlightEventKind::kSend: ADD_FAILURE() << "unexpected kSend"; break;
      case FlightEventKind::kLose: ++losses; break;
      case FlightEventKind::kDeliver: ++deliveries; break;
      case FlightEventKind::kToDead: ++to_dead; break;
      default: break;
    }
    max_round = std::max(max_round, e.round);
  }
  EXPECT_EQ(losses + deliveries + to_dead, driver.network_metrics().sent);
  EXPECT_EQ(losses, driver.network_metrics().lost);
  EXPECT_EQ(deliveries, driver.network_metrics().delivered);
  EXPECT_EQ(to_dead, driver.network_metrics().to_dead);
  // Events carry the live round counter, not a constant.
  EXPECT_EQ(max_round, 20u);
}

TEST(FlightRecorderIntegration, EventDriverRecordingLeavesMetricsUnchanged) {
  const auto run = [](FlightRecorder* recorder) {
    Rng rng(31);
    sim::Cluster cluster(64, [](NodeId id) {
      return std::make_unique<SendForget>(id, default_send_forget_config());
    });
    Rng graph_rng(7);
    cluster.install_graph(permutation_regular(64, 10, graph_rng));
    sim::UniformLoss loss(0.05);
    sim::EventDriver driver(cluster, loss, rng);
    driver.attach_flight_recorder(recorder);
    driver.run_rounds(30);
    return driver.network_metrics();
  };
  const sim::NetworkMetrics bare = run(nullptr);
  FlightRecorder recorder(1, /*capacity=*/1u << 16);
  const sim::NetworkMetrics recorded = run(&recorder);
  // Recording forces the stepped per-round schedule, which for the default
  // binary-representable period is bit-identical to the fast path.
  EXPECT_EQ(bare.sent, recorded.sent);
  EXPECT_EQ(bare.lost, recorded.lost);
  EXPECT_EQ(bare.delivered, recorded.delivered);
  EXPECT_EQ(bare.to_dead, recorded.to_dead);
  // Delivery events are stamped with the round current at delivery time.
  std::uint32_t max_round = 0;
  for (const FlightEvent& e : recorder.shard_events(0)) {
    max_round = std::max(max_round, e.round);
  }
  EXPECT_GT(max_round, 1u);
}

}  // namespace
}  // namespace gossip
