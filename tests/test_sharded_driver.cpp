#include "sim/sharded_driver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/flat_send_forget.hpp"
#include "core/send_forget.hpp"
#include "graph/graph_gen.hpp"
#include "obs/profiler.hpp"
#include "obs/timeseries.hpp"
#include "sim/round_driver.hpp"

namespace gossip::sim {
namespace {

void install_regular_topology(FlatSendForgetCluster& cluster, std::size_t k,
                              std::uint64_t graph_seed) {
  Rng rng(graph_seed);
  cluster.install_graph(permutation_regular(cluster.size(), k, rng));
}

// ---------------------------------------------------------------------------
// FlatSendForgetCluster unit behavior (must mirror SendForget, Fig 5.1).
// ---------------------------------------------------------------------------

TEST(FlatSendForget, InitiateOnEmptyViewIsSelfLoop) {
  FlatSendForgetCluster cluster(4, SendForgetConfig{.view_size = 6,
                                                    .min_degree = 0});
  Rng rng(1);
  FlatPush msg;
  EXPECT_EQ(cluster.initiate(0, rng, msg), FlatInitiateResult::kSelfLoop);
  EXPECT_EQ(cluster.degree(0), 0u);
}

TEST(FlatSendForget, InitiateClearsSlotsAboveMinDegree) {
  FlatSendForgetCluster cluster(8, SendForgetConfig{.view_size = 6,
                                                    .min_degree = 0});
  cluster.install_view(3, {1, 2});
  Rng rng(2);
  FlatPush msg;
  FlatInitiateResult result = FlatInitiateResult::kSelfLoop;
  while (result == FlatInitiateResult::kSelfLoop) {
    result = cluster.initiate(3, rng, msg);
  }
  ASSERT_EQ(result, FlatInitiateResult::kSent);
  EXPECT_EQ(cluster.degree(3), 0u);
  EXPECT_EQ(msg.count, 2u);
  EXPECT_EQ(msg.sender().id(), 3u);
  EXPECT_FALSE(msg.sender().dependent());
  EXPECT_FALSE(msg.carried().dependent());
  EXPECT_TRUE((msg.to == 1 && msg.carried().id() == 2) ||
              (msg.to == 2 && msg.carried().id() == 1));
}

TEST(FlatSendForget, InitiateDuplicatesAtMinDegree) {
  FlatSendForgetCluster cluster(8, SendForgetConfig{.view_size = 8,
                                                    .min_degree = 2});
  cluster.install_view(5, {1, 2});  // degree 2 == dL -> duplication
  Rng rng(3);
  FlatPush msg;
  FlatInitiateResult result = FlatInitiateResult::kSelfLoop;
  while (result == FlatInitiateResult::kSelfLoop) {
    result = cluster.initiate(5, rng, msg);
  }
  ASSERT_EQ(result, FlatInitiateResult::kSentDuplicated);
  EXPECT_EQ(cluster.degree(5), 2u);
  EXPECT_TRUE(msg.sender().dependent());
  EXPECT_TRUE(msg.carried().dependent());
}

TEST(FlatSendForget, ReceiveStoresBothIdsAndDeletesWhenFull) {
  FlatSendForgetCluster cluster(10, SendForgetConfig{.view_size = 6,
                                                     .min_degree = 0});
  Rng rng(4);
  FlatPush msg;
  msg.to = 0;
  msg.count = 2;
  msg.ids[0] = PackedViewEntry::pack(3, false);
  msg.ids[1] = PackedViewEntry::pack(7, true);
  EXPECT_EQ(cluster.receive(0, msg, rng), 2u);
  EXPECT_EQ(cluster.degree(0), 2u);
  const auto ids = cluster.view_ids(0);
  EXPECT_NE(std::find(ids.begin(), ids.end(), 3u), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), 7u), ids.end());

  cluster.install_view(1, {2, 3, 4, 5, 6, 7});
  msg.to = 1;
  EXPECT_EQ(cluster.receive(1, msg, rng), 0u);  // full: deletion
  EXPECT_EQ(cluster.degree(1), 6u);
}

TEST(FlatSendForget, ReceivingOwnIdCreatesDependentSelfEdge) {
  FlatSendForgetCluster cluster(10, SendForgetConfig{.view_size = 6,
                                                     .min_degree = 0});
  Rng rng(5);
  FlatPush msg;
  msg.to = 4;
  msg.count = 2;
  msg.ids[0] = PackedViewEntry::pack(1, false);
  msg.ids[1] = PackedViewEntry::pack(4, false);
  cluster.receive(4, msg, rng);
  for (const ViewEntry& e : cluster.view_entries(4)) {
    if (e.id == 4) {
      EXPECT_TRUE(e.dependent);
    }
  }
}

TEST(FlatSendForget, ReviveBootstrapsMinDegreeLiveIds) {
  FlatSendForgetCluster cluster(64, SendForgetConfig{.view_size = 12,
                                                     .min_degree = 4});
  install_regular_topology(cluster, 4, 11);
  Rng rng(6);
  cluster.kill(7);
  EXPECT_EQ(cluster.live_count(), 63u);
  cluster.revive(7, rng);
  EXPECT_TRUE(cluster.live(7));
  EXPECT_EQ(cluster.degree(7), 4u);
  for (const NodeId id : cluster.view_ids(7)) {
    EXPECT_NE(id, 7u);
    EXPECT_TRUE(cluster.live(id));
  }
}

TEST(FlatSendForget, InstallGraphCopiesRowsAndRejectsSizeMismatch) {
  FlatSendForgetCluster cluster(4, SendForgetConfig{.view_size = 8,
                                                    .min_degree = 2});
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  g.add_edge(0, 3);
  g.add_edge(2, 0);
  cluster.install_graph(g);
  EXPECT_EQ(cluster.view_ids(0), (std::vector<NodeId>{1, 1, 3}));
  EXPECT_TRUE(cluster.view_ids(1).empty());
  EXPECT_EQ(cluster.view_ids(2), (std::vector<NodeId>{0}));
  EXPECT_EQ(cluster.degree(0), 3u);
  EXPECT_THROW(cluster.install_graph(Digraph(5)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ShardedDriver: determinism, invariants, equivalence with RoundDriver.
// ---------------------------------------------------------------------------

// One full sharded run with loss and churn; returns the final fingerprint.
// `threads` = 0 keeps the historical one-worker-per-shard execution.
std::uint64_t churny_run(std::size_t n, std::size_t shards,
                         std::uint64_t seed, std::size_t threads = 0) {
  FlatSendForgetCluster cluster(n, default_send_forget_config());
  install_regular_topology(cluster, 18, 21);
  ShardedDriver driver(
      cluster, ShardedDriverConfig{.shard_count = shards,
                                   .thread_count = threads,
                                   .loss_rate = 0.05,
                                   .seed = seed});
  Rng churn_picks(seed ^ 0xABCD);
  std::vector<NodeId> dead;
  for (int batch = 0; batch < 8; ++batch) {
    driver.run_rounds(3);
    // Deterministic churn schedule: kill two nodes, revive one.
    for (int i = 0; i < 2; ++i) {
      const auto victim =
          static_cast<NodeId>(churn_picks.uniform(cluster.size()));
      if (cluster.live(victim) && cluster.live_count() > n / 2) {
        driver.kill(victim);
        dead.push_back(victim);
      }
    }
    if (!dead.empty()) {
      driver.revive(dead.back());
      dead.pop_back();
    }
  }
  return cluster.fingerprint() ^ (driver.actions_executed() * 0x9E37ULL) ^
         driver.network_metrics().delivered;
}

TEST(ShardedDriver, BitExactDeterminismForFixedSeedAndThreadCount) {
  // Same (seed, shard_count) => bit-identical final state and counters,
  // regardless of how the OS schedules the worker threads.
  const std::uint64_t a = churny_run(4096, 4, 77);
  const std::uint64_t b = churny_run(4096, 4, 77);
  EXPECT_EQ(a, b);
  // Different seed must (overwhelmingly) diverge — guards against the
  // fingerprint degenerating to a constant.
  EXPECT_NE(a, churny_run(4096, 4, 78));
}

TEST(ShardedDriver, SingleVsMultiShardAreBothDeterministic) {
  EXPECT_EQ(churny_run(1000, 1, 5), churny_run(1000, 1, 5));
  EXPECT_EQ(churny_run(1000, 3, 5), churny_run(1000, 3, 5));
}

TEST(ShardedDriver, FingerprintInvariantAcrossThreadCounts) {
  // The logical shard is the determinism unit: for a fixed (seed,
  // shard_count), the final state is bit-identical no matter how many
  // worker threads execute the shards.
  const std::uint64_t base = churny_run(4096, 8, 123, /*threads=*/1);
  EXPECT_EQ(base, churny_run(4096, 8, 123, /*threads=*/2));
  EXPECT_EQ(base, churny_run(4096, 8, 123, /*threads=*/3));
  EXPECT_EQ(base, churny_run(4096, 8, 123, /*threads=*/8));
  // ... while shard_count is part of the contract: changing it re-streams
  // the RNGs and must diverge.
  EXPECT_NE(base, churny_run(4096, 4, 123, /*threads=*/4));
}

TEST(ShardedDriver, UnevenShardBlocksStayInBoundsWithAProfiler) {
  // Thread counts that do not divide the shard count: every worker's block
  // must be a nonempty range inside [0, shard_count), or its barrier and
  // probe timers would write past the profiler's per-shard slabs (an ASan
  // heap-buffer-overflow). The observed, profiled run must still land on
  // the one-thread fingerprint.
  const auto run = [](std::size_t shards, std::size_t threads) {
    FlatSendForgetCluster cluster(2'000, default_send_forget_config());
    install_regular_topology(cluster, 18, 9);
    ShardedDriver driver(cluster, ShardedDriverConfig{.shard_count = shards,
                                                      .thread_count = threads,
                                                      .loss_rate = 0.05,
                                                      .seed = 41});
    obs::PhaseProfiler profiler(shards);
    obs::RoundTimeSeries series(2);
    driver.attach_profiler(&profiler);
    driver.attach_time_series(&series);
    driver.run_rounds(6);
    return cluster.fingerprint() ^ driver.network_metrics().delivered;
  };
  const std::pair<std::size_t, std::size_t> cases[] = {
      {5, 4}, {6, 4}, {7, 4}, {3, 2}};
  for (const auto& [shards, threads] : cases) {
    EXPECT_EQ(run(shards, threads), run(shards, 1))
        << shards << " shards on " << threads << " threads";
  }
}

TEST(ShardedDriver, BatchedPairsDeterministicAcrossThreadCounts) {
  // §5 batched messages (p = 2): 4-id payloads ride the same mailbox
  // frames; the determinism contract must hold for them too. Runs under
  // ThreadSanitizer via the suite's `tsan` label.
  const auto run = [](std::size_t threads) {
    FlatSendForgetCluster cluster(
        2048, SendForgetConfig{.view_size = 40,
                               .min_degree = 18,
                               .pairs_per_message = 2});
    install_regular_topology(cluster, 18, 5);
    ShardedDriver driver(cluster, ShardedDriverConfig{.shard_count = 4,
                                                      .thread_count = threads,
                                                      .loss_rate = 0.05,
                                                      .seed = 33});
    driver.run_rounds(40);
    return cluster.fingerprint() ^ driver.network_metrics().delivered ^
           (driver.protocol_metrics().ids_accepted * 0x9E37ULL);
  };
  const std::uint64_t base = run(1);
  EXPECT_EQ(base, run(2));
  EXPECT_EQ(base, run(4));
}

TEST(ShardedDriver, BatchedPairsAcceptPartialPayloads) {
  // A 2p-id delivery into a view with fewer than 2p empty slots accepts
  // the prefix that fits and records exactly one deletion (§5 /
  // SendForget semantics) — visible through ids_accepted < 2p * count.
  FlatSendForgetCluster cluster(
      512, SendForgetConfig{.view_size = 40,
                            .min_degree = 18,
                            .pairs_per_message = 2});
  install_regular_topology(cluster, 36, 7);  // near-full views
  ShardedDriver driver(cluster, ShardedDriverConfig{.shard_count = 2,
                                                    .thread_count = 1,
                                                    .loss_rate = 0.0,
                                                    .seed = 11});
  driver.run_rounds(30);
  const auto m = driver.protocol_metrics();
  ASSERT_GT(m.messages_received, 0u);
  EXPECT_GT(m.ids_accepted, 0u);
  // Partial acceptance happened: accepted ids are not a whole multiple of
  // full 4-id payloads for every delivery.
  EXPECT_LT(m.ids_accepted, 4 * m.messages_received);
  EXPECT_GT(m.deletions, 0u);
}

TEST(ShardedDriver, RunToQuiescenceStopsEarlyAndIsDeterministic) {
  // dL = 0 with total loss: every action clears two slots and nothing is
  // ever delivered, so the cluster decays to all-empty views and the
  // quiescence predicate must fire long before the round budget.
  const auto run = [](std::size_t threads, std::uint64_t* ran_out) {
    FlatSendForgetCluster cluster(
        512, SendForgetConfig{.view_size = 16, .min_degree = 0});
    install_regular_topology(cluster, 8, 13);
    ShardedDriver driver(cluster, ShardedDriverConfig{.shard_count = 4,
                                                      .thread_count = threads,
                                                      .loss_rate = 1.0,
                                                      .seed = 3});
    const std::uint64_t ran = driver.run_to_quiescence(50'000);
    if (ran_out != nullptr) *ran_out = ran;
    for (NodeId u = 0; u < cluster.size(); ++u) {
      EXPECT_EQ(cluster.degree(u), 0u) << "node " << u;
    }
    return cluster.fingerprint() ^ (ran * 0x9E37ULL);
  };
  std::uint64_t ran1 = 0;
  std::uint64_t ran4 = 0;
  const std::uint64_t a = run(1, &ran1);
  EXPECT_LT(ran1, 50'000u);
  EXPECT_GT(ran1, 0u);
  // Same seed, same shard count: identical stopping round and final state,
  // single- or multi-threaded.
  EXPECT_EQ(a, run(1, nullptr));
  EXPECT_EQ(a, run(4, &ran4));
  EXPECT_EQ(ran1, ran4);
}

TEST(ShardedDriver, Obs51InvariantUnderParallelLossAndChurn) {
  // Observation 5.1: every outdegree stays even and within [dL, s] — after
  // >= 10k parallel actions under 5% loss with ongoing churn.
  const std::size_t n = 2000;
  const auto cfg = default_send_forget_config();
  FlatSendForgetCluster cluster(n, cfg);
  install_regular_topology(cluster, cfg.min_degree, 31);
  ShardedDriver driver(cluster, ShardedDriverConfig{.shard_count = 4,
                                                    .loss_rate = 0.05,
                                                    .seed = 9});
  Rng churn_picks(123);
  std::vector<NodeId> dead;
  for (int batch = 0; batch < 10; ++batch) {
    driver.run_rounds(1);
    for (int i = 0; i < 5; ++i) {
      const auto victim = static_cast<NodeId>(churn_picks.uniform(n));
      if (cluster.live(victim) && cluster.live_count() > n - 200) {
        driver.kill(victim);
        dead.push_back(victim);
      }
    }
    while (dead.size() > 3) {
      driver.revive(dead.back());
      dead.pop_back();
    }
  }
  ASSERT_GE(driver.actions_executed(), 10'000u);
  for (NodeId u = 0; u < n; ++u) {
    if (!cluster.live(u)) continue;
    const std::size_t d = cluster.degree(u);
    ASSERT_EQ(d % 2, 0u) << "node " << u;
    ASSERT_GE(d, cfg.min_degree) << "node " << u;
    ASSERT_LE(d, cfg.view_size) << "node " << u;
  }
  // Loss actually happened and messages actually crossed shards.
  EXPECT_GT(driver.network_metrics().lost, 0u);
  EXPECT_GT(driver.network_metrics().delivered, 0u);
}

// The phase-A schedule itself: each round a shard first draws one pick per
// live node it owns, then runs the picks in order, drawing loss at send and
// delivering an own-shard message inline on the same stream. With one shard
// and no churn the live list is [0, n) in order, so a reference loop over
// the cluster API on Rng::stream(seed, 0) must leave the same fingerprint
// and the same counters.
TEST(ShardedDriver, InitiatorsDrawnBeforeTheRoundRuns) {
  constexpr std::size_t kNodes = 500;
  constexpr std::uint64_t kSeed = 31;
  constexpr double kLoss = 0.02;
  FlatSendForgetCluster driven(kNodes, default_send_forget_config());
  FlatSendForgetCluster reference(kNodes, default_send_forget_config());
  install_regular_topology(driven, 18, 5);
  install_regular_topology(reference, 18, 5);
  ShardedDriver driver(driven, ShardedDriverConfig{.shard_count = 1,
                                                   .thread_count = 1,
                                                   .loss_rate = kLoss,
                                                   .seed = kSeed});
  driver.run_rounds(30);

  Rng rng = Rng::stream(kSeed, 0);
  ProtocolMetrics pm;
  NetworkMetrics nm;
  std::vector<NodeId> picks(kNodes);
  FlatPush msg;
  for (int round = 0; round < 30; ++round) {
    for (NodeId& u : picks) u = static_cast<NodeId>(rng.uniform(kNodes));
    for (const NodeId u : picks) {
      ++pm.actions_initiated;
      const FlatInitiateResult result = reference.initiate(u, rng, msg);
      if (result == FlatInitiateResult::kSelfLoop) {
        ++pm.self_loop_actions;
        continue;
      }
      if (result == FlatInitiateResult::kSentDuplicated) ++pm.duplications;
      ++nm.sent;
      if (rng.bernoulli(kLoss)) {
        ++nm.lost;
        continue;
      }
      ASSERT_TRUE(reference.live(msg.to));
      ++nm.delivered;
      const std::size_t accepted = reference.receive(msg.to, msg, rng);
      pm.ids_accepted += accepted;
      if (accepted < msg.count) ++pm.deletions;
    }
  }
  EXPECT_GT(nm.lost, 0u);
  EXPECT_EQ(driven.fingerprint(), reference.fingerprint());
  const ProtocolMetrics dp = driver.protocol_metrics();
  EXPECT_EQ(dp.actions_initiated, pm.actions_initiated);
  EXPECT_EQ(dp.self_loop_actions, pm.self_loop_actions);
  EXPECT_EQ(dp.duplications, pm.duplications);
  EXPECT_EQ(dp.deletions, pm.deletions);
  EXPECT_EQ(dp.ids_accepted, pm.ids_accepted);
  const NetworkMetrics dn = driver.network_metrics();
  EXPECT_EQ(dn.sent, nm.sent);
  EXPECT_EQ(dn.lost, nm.lost);
  EXPECT_EQ(dn.delivered, nm.delivered);
  EXPECT_EQ(dn.to_dead, 0u);
}

TEST(ShardedDriver, OneShardMatchesRoundDriverStatistically) {
  // The sharded schedule (stratified initiations, barrier-drained
  // deliveries) must reproduce the serialized driver's steady state:
  // compare degree statistics at the paper's operating point under 5% loss.
  const std::size_t n = 2000;
  const std::size_t rounds = 300;
  const auto cfg = default_send_forget_config();

  FlatSendForgetCluster flat(n, cfg);
  install_regular_topology(flat, cfg.min_degree, 41);
  ShardedDriver sharded(flat, ShardedDriverConfig{.shard_count = 1,
                                                  .loss_rate = 0.05,
                                                  .seed = 17});
  sharded.run_rounds(rounds);

  Rng seq_rng(17);
  Rng graph_rng(41);
  Cluster cluster(n, [&cfg](NodeId id) {
    return std::make_unique<SendForget>(id, cfg);
  });
  cluster.install_graph(permutation_regular(n, cfg.min_degree, graph_rng));
  UniformLoss loss(0.05);
  RoundDriver driver(cluster, loss, seq_rng);
  driver.run_rounds(rounds);

  double flat_mean = 0.0;
  double seq_mean = 0.0;
  for (NodeId u = 0; u < n; ++u) {
    flat_mean += static_cast<double>(flat.degree(u));
    seq_mean += static_cast<double>(cluster.node(u).view().degree());
  }
  flat_mean /= static_cast<double>(n);
  seq_mean /= static_cast<double>(n);
  // Same tolerance regime as test_send_forget.cpp's statistical checks
  // (4% of the quantity's scale).
  EXPECT_NEAR(flat_mean, seq_mean, 0.04 * static_cast<double>(cfg.view_size));

  const auto flat_m = sharded.protocol_metrics();
  const auto seq_m = cluster.aggregate_metrics();
  EXPECT_NEAR(flat_m.self_loop_rate(), seq_m.self_loop_rate(), 0.04);
  EXPECT_NEAR(flat_m.duplication_rate(), seq_m.duplication_rate(), 0.04);
}

}  // namespace
}  // namespace gossip::sim
