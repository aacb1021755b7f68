// Thread-safety of the observability hot path. Built with the tsan label:
// the registry's claim — unsynchronized per-shard slabs with no false
// sharing and no cross-shard writes — must hold under ThreadSanitizer, and
// an observed multi-threaded sharded run must stay on the deterministic
// fingerprint contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/flat_send_forget.hpp"
#include "core/send_forget.hpp"
#include "graph/graph_gen.hpp"
#include "obs/export/snapshot.hpp"
#include "obs/oracle/flight_recorder.hpp"
#include "obs/oracle/theory_oracle.hpp"
#include "obs/probe.hpp"
#include "obs/profiler.hpp"
#include "obs/recovery.hpp"
#include "obs/registry.hpp"
#include "obs/timeseries.hpp"
#include "obs/watchdog.hpp"
#include "sim/cluster.hpp"
#include "sim/cluster_probe.hpp"
#include "sim/fault_plane.hpp"
#include "sim/run.hpp"
#include "sim/sharded_driver.hpp"

namespace gossip {
namespace {

// Each thread owns one shard and hammers its slab through the public API
// while the others do the same: no two threads ever write the same shard,
// which is exactly the discipline the registry documents. The merged totals
// must come out exact.
TEST(ObsParallel, ConcurrentPerShardCounterWritesMergeExactly) {
  constexpr std::size_t kShards = 8;
  constexpr std::uint64_t kIncrements = 200'000;
  obs::MetricsRegistry registry(kShards);
  const obs::CounterId hits = registry.counter("hits");
  const obs::CounterId bulk = registry.counter("bulk");
  const obs::HistogramId hist = registry.histogram("values", {0.25, 0.5, 0.75});
  std::vector<std::thread> workers;
  workers.reserve(kShards);
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    workers.emplace_back([&registry, hits, bulk, hist, shard] {
      for (std::uint64_t i = 0; i < kIncrements; ++i) {
        registry.add(hits, shard);
        if ((i & 7) == 0) registry.add(bulk, shard, 3);
        if ((i & 1023) == 0) {
          registry.observe(hist, shard,
                           static_cast<double>(shard) / kShards);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(registry.counter_value(hits), kShards * kIncrements);
  EXPECT_EQ(registry.counter_value(bulk), kShards * (kIncrements / 8) * 3);
  std::uint64_t hist_total = 0;
  for (const std::uint64_t c : registry.histogram_counts(hist)) hist_total += c;
  EXPECT_EQ(hist_total, kShards * (kIncrements / 1024 + 1));
}

// Same discipline through the raw slab pointer — the fastest documented hot
// path (cache the pointer once, bump cells directly).
TEST(ObsParallel, RawSlabPointersAreRaceFreeAcrossShards) {
  constexpr std::size_t kShards = 8;
  constexpr std::uint64_t kIncrements = 500'000;
  obs::MetricsRegistry registry(kShards);
  const obs::CounterId a = registry.counter("a");
  const obs::CounterId b = registry.counter("b");
  std::vector<std::thread> workers;
  workers.reserve(kShards);
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    workers.emplace_back([&registry, a, b, shard] {
      std::uint64_t* slab = registry.counters(shard);
      for (std::uint64_t i = 0; i < kIncrements; ++i) {
        ++slab[a.index];
        slab[b.index] += 2;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(registry.counter_value(a), kShards * kIncrements);
  EXPECT_EQ(registry.counter_value(b), kShards * kIncrements * 2);
}

TEST(ObsParallel, ProfilerScopesAcrossThreads) {
  constexpr std::size_t kShards = 4;
  obs::PhaseProfiler profiler(kShards);
  const obs::PhaseId work = profiler.phase("work");
  std::vector<std::thread> workers;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    workers.emplace_back([&profiler, work, shard] {
      for (int i = 0; i < 1'000; ++i) {
        const obs::PhaseProfiler::Scope timer(&profiler, work, shard);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const auto totals = profiler.totals();
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_EQ(totals[0].count, kShards * 1'000u);
}

// A fully observed multi-threaded sharded run (time-series + watchdog +
// profiler attached, 4 worker threads) must be race-free and land on the
// same cluster fingerprint and registry dump as an identical second run —
// the determinism contract with observation in the loop.
TEST(ObsParallel, ObservedShardedRunIsDeterministic) {
  const auto run = [] {
    const std::size_t n = 2'000;
    const SendForgetConfig cfg = default_send_forget_config();
    Rng rng(7);
    FlatSendForgetCluster cluster(n, cfg);
    cluster.install_graph(permutation_regular(n, cfg.min_degree, rng));
    sim::ShardedDriver driver(
        cluster, sim::ShardedDriverConfig{
                     .shard_count = 4, .loss_rate = 0.03, .seed = 77});
    obs::RoundTimeSeries series(5);
    obs::InvariantWatchdog watchdog(obs::WatchdogConfig{
        .min_degree = cfg.min_degree, .view_size = cfg.view_size});
    obs::PhaseProfiler profiler(4);
    driver.attach_time_series(&series);
    driver.attach_watchdog(&watchdog);
    driver.attach_profiler(&profiler);
    driver.run_rounds(30);
    return std::pair{cluster.fingerprint(),
                     driver.metrics_registry().dump()};
  };
  const auto [fp_a, dump_a] = run();
  const auto [fp_b, dump_b] = run();
  EXPECT_EQ(fp_a, fp_b);
  EXPECT_EQ(dump_a, dump_b);
}

FlatSendForgetCluster regular_cluster(std::size_t n, std::uint64_t seed) {
  const SendForgetConfig cfg = default_send_forget_config();
  Rng rng(seed);
  FlatSendForgetCluster cluster(n, cfg);
  cluster.install_graph(permutation_regular(n, cfg.min_degree, rng));
  return cluster;
}

// Counters registered on the driver's registry after construction and
// after attaching observers grow (and move) every counter slab. The
// phase-end flushes must land in the live slabs: every action counted,
// every sent message accounted for.
TEST(ObsParallel, CountersRegisteredAfterAttachKeepTheRunExact) {
  const std::size_t n = 2'000;
  const std::uint64_t rounds = 20;
  const SendForgetConfig cfg = default_send_forget_config();
  FlatSendForgetCluster cluster = regular_cluster(n, 5);
  sim::ShardedDriver driver(
      cluster, sim::ShardedDriverConfig{
                   .shard_count = 2, .loss_rate = 0.03, .seed = 21});
  obs::MetricsRegistry& registry = driver.metrics_registry();
  for (int i = 0; i < 7; ++i) {
    registry.counter("after_construction_" + std::to_string(i));
  }
  obs::RoundTimeSeries series(5);
  obs::InvariantWatchdog watchdog(obs::WatchdogConfig{
      .min_degree = cfg.min_degree, .view_size = cfg.view_size});
  driver.attach_time_series(&series);
  driver.attach_watchdog(&watchdog);
  for (int i = 0; i < 7; ++i) {
    registry.counter("after_attach_" + std::to_string(i));
  }

  driver.run_rounds(rounds);

  const obs::CumulativeCounters c = driver.cumulative_counters();
  EXPECT_EQ(c.actions, n * rounds);
  EXPECT_GT(c.sent, 0u);
  EXPECT_EQ(c.sent, c.lost + c.delivered + c.to_dead + c.faulted);
  EXPECT_EQ(watchdog.violation_count(), 0u);
  EXPECT_EQ(series.samples().size(), rounds / 5);
}

// The slice/merge arithmetic on its own: any cut of [0, n) into any number
// of slices, walked in any order, merges to the one-slice probe. The view
// graph is two chains (u -> u + 2) cut by two dead nodes, so every slice
// holds links the component census needs.
TEST(ObsParallel, ProbeSlicesMergeToTheOneSliceProbe) {
  const std::size_t n = 97;
  FlatSendForgetCluster cluster(n, SendForgetConfig{.view_size = 6,
                                                    .min_degree = 0});
  for (NodeId u = 0; u + 2 < n; ++u) cluster.install_view(u, {u + 2});
  cluster.kill(40);
  cluster.kill(41);
  std::vector<std::uint32_t> serial_occurrences;
  const obs::FlatClusterProbe serial =
      obs::ProbeSlices().run(obs::FlatViews(cluster), /*components=*/true,
                             &serial_occurrences);
  // The chain pieces: evens 0..38 and 42..96, odds 1..39 and 43..95.
  ASSERT_TRUE(serial.largest_component.has_value());
  EXPECT_EQ(*serial.largest_component, 28u);
  EXPECT_EQ(serial_occurrences[40], obs::kDeadNodeOccurrence);

  for (const std::size_t slices : {2, 3, 5}) {
    SCOPED_TRACE(testing::Message() << slices << " slices");
    obs::ProbeSlices probe;
    std::vector<std::uint32_t> occurrences;
    probe.prepare(n, slices, /*components=*/true, &occurrences);
    for (std::size_t k = slices; k-- > 0;) {
      probe.slice(obs::FlatViews(cluster), k,
                  static_cast<NodeId>(k * n / slices),
                  static_cast<NodeId>((k + 1) * n / slices));
    }
    EXPECT_TRUE(probe.merge(obs::FlatViews(cluster)) == serial);
    EXPECT_EQ(occurrences, serial_occurrences);
  }
}

// The census rows: empty, full, all-dependent, self ids, dead targets and a
// dead row that holds ids. Every row has an even length, so both engines
// take it as pushes of two.
using Rows = std::vector<std::vector<ViewEntry>>;
constexpr std::size_t kCensusNodes = 11;
constexpr NodeId kCensusDead[] = {9, 10};

Rows census_rows() {
  const auto in = [](NodeId id) { return ViewEntry{id, false}; };
  const auto dep = [](NodeId id) { return ViewEntry{id, true}; };
  return {
      {},                                                   // 0: empty
      {in(2), in(3), in(4), in(5), in(6), in(7)},           // 1: full
      {dep(3), dep(4), dep(5), dep(6)},                     // 2: dependent
      {in(3), in(3), in(1), in(0)},                         // 3: self ids
      {in(9), in(10), in(1), dep(9)},                       // 4: dead targets
      {dep(0), dep(0), dep(1), dep(1), dep(2), dep(2)},     // 5: full, dep
      {in(7), in(8)},
      {},
      {in(1), in(4)},
      {in(1), in(2), in(3), in(4)},                         // 9: dead row
      {},                                                   // 10: dead
  };
}

// The probe computed line by line from each live node's entries: counts,
// histograms and summaries in node order, in-degree over ids of the
// cluster only.
template <class Live, class Entries>
obs::FlatClusterProbe reference_census(std::size_t n, std::size_t s,
                                       std::vector<std::uint32_t>& indegree,
                                       Live live, Entries entries) {
  obs::FlatClusterProbe probe;
  probe.outdegree_hist.assign(s + 1, 0);
  probe.indegree_hist.assign(2 * s + 1, 0);
  indegree.assign(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    if (!live(u)) continue;
    ++probe.live_nodes;
    const std::vector<ViewEntry> row = entries(u);
    ++probe.outdegree_hist[row.size()];
    probe.occupied_slots += row.size();
    for (const ViewEntry& e : row) {
      if (e.dependent) ++probe.dependent_entries;
      if (e.id < n) ++indegree[e.id];
    }
  }
  const auto summarize = [&](auto value) {
    obs::DegreeSummary summary{.min = UINT32_MAX};
    double sum = 0.0;
    for (NodeId u = 0; u < n; ++u) {
      if (!live(u)) continue;
      const std::uint32_t d = value(u);
      sum += d;
      summary.min = std::min(summary.min, d);
      summary.max = std::max(summary.max, d);
    }
    const auto count = static_cast<double>(probe.live_nodes);
    summary.mean = sum / count;
    double sq = 0.0;
    for (NodeId u = 0; u < n; ++u) {
      if (!live(u)) continue;
      const double c = static_cast<double>(value(u)) - summary.mean;
      sq += c * c;
    }
    summary.sd = std::sqrt(sq / (count - 1));
    return summary;
  };
  probe.outdegree = summarize(
      [&](NodeId u) { return static_cast<std::uint32_t>(entries(u).size()); });
  probe.indegree = summarize([&](NodeId u) { return indegree[u]; });
  for (NodeId u = 0; u < n; ++u) {
    if (live(u)) {
      ++probe.indegree_hist[std::min<std::size_t>(indegree[u], 2 * s)];
    } else {
      indegree[u] = obs::kDeadNodeOccurrence;
    }
  }
  probe.empty_slot_fraction =
      1.0 - static_cast<double>(probe.occupied_slots) /
                static_cast<double>(probe.live_nodes * s);
  return probe;
}

// Slices [0, n) into `slices` ranges, walked last to first, and merges.
template <class Views>
obs::FlatClusterProbe sliced_probe(const Views& views, std::size_t slices,
                                   bool components,
                                   std::vector<std::uint32_t>& occurrences) {
  const std::size_t n = views.size();
  obs::ProbeSlices probe;
  probe.prepare(n, slices, components, &occurrences);
  for (std::size_t k = slices; k-- > 0;) {
    probe.slice(views, k, static_cast<NodeId>(k * n / slices),
                static_cast<NodeId>((k + 1) * n / slices));
  }
  return probe.merge(views);
}

// Slices past the first count in 8 bits and list each wrap. Every row holds
// id 0 twice and id 1 once, so with 256 rows a slice counts 512 of id 0 and
// 256 of id 1: both wrap back to exactly 0, and the merge must still add
// them up to the one-slice census.
TEST(ObsParallel, SlicedInDegreeCountsPastTheByteLimit) {
  const std::size_t n = 1024;
  FlatSendForgetCluster cluster(n, SendForgetConfig{.view_size = 6,
                                                    .min_degree = 0});
  for (NodeId u = 0; u < n; ++u) {
    cluster.install_view(u, {0, 0, 1, static_cast<NodeId>((u + 1) % n)});
  }
  cluster.kill(700);
  std::vector<std::uint32_t> serial_occurrences;
  const obs::FlatClusterProbe serial =
      obs::ProbeSlices().run(obs::FlatViews(cluster), /*components=*/true,
                             &serial_occurrences);
  // Every live row holds 0 twice and 1 once; rows n - 1 and 0 hold them
  // once more as successors.
  EXPECT_EQ(serial_occurrences[0], 2 * (n - 1) + 1);
  EXPECT_EQ(serial_occurrences[1], n - 1 + 1);
  EXPECT_EQ(serial_occurrences[2], 1u);
  EXPECT_EQ(serial_occurrences[701], 0u);  // its only holder is dead
  EXPECT_EQ(serial.indegree.max, 2 * (n - 1) + 1);
  for (std::size_t slices = 2; slices <= 5; ++slices) {
    SCOPED_TRACE(testing::Message() << slices << " slices");
    std::vector<std::uint32_t> occurrences;
    EXPECT_TRUE(sliced_probe(obs::FlatViews(cluster), slices,
                             /*components=*/true, occurrences) == serial);
    EXPECT_EQ(occurrences, serial_occurrences);
  }
}

// The branch-free census against the line-by-line reference, flat engine.
TEST(ObsParallel, FlatCensusMatchesTheLineByLineReference) {
  const std::size_t s = 6;
  FlatSendForgetCluster cluster(kCensusNodes,
                                SendForgetConfig{.view_size = s,
                                                 .min_degree = 0});
  Rng rng(31);
  const Rows rows = census_rows();
  for (NodeId u = 0; u < kCensusNodes; ++u) {
    for (std::size_t i = 0; i < rows[u].size(); i += 2) {
      FlatPush push;
      push.count = 2;
      push.ids[0] = PackedViewEntry::pack(rows[u][i].id, rows[u][i].dependent);
      push.ids[1] =
          PackedViewEntry::pack(rows[u][i + 1].id, rows[u][i + 1].dependent);
      ASSERT_EQ(cluster.receive(u, push, rng), 2u);
    }
  }
  for (const NodeId u : kCensusDead) cluster.kill(u);
  std::vector<std::uint32_t> expected_indegree;
  const obs::FlatClusterProbe expected = reference_census(
      kCensusNodes, s, expected_indegree,
      [&](NodeId u) { return cluster.live(u); },
      [&](NodeId u) { return cluster.view_entries(u); });
  EXPECT_EQ(expected.dependent_entries, 13u);
  for (std::size_t slices = 1; slices <= 4; ++slices) {
    SCOPED_TRACE(testing::Message() << slices << " slices");
    std::vector<std::uint32_t> occurrences;
    EXPECT_TRUE(sliced_probe(obs::FlatViews(cluster), slices,
                             /*components=*/false, occurrences) == expected);
    EXPECT_EQ(occurrences, expected_indegree);
  }
}

// The same census over the object engine, whose views may also hold ids
// of nodes the cluster does not have.
TEST(ObsParallel, ObjectCensusMatchesTheLineByLineReference) {
  const SendForgetConfig cfg{.view_size = 6, .min_degree = 0};
  sim::Cluster cluster(kCensusNodes, [&](NodeId id) {
    return std::make_unique<SendForget>(id, cfg);
  });
  Rng rng(37);
  struct : Transport {
    void send(Message) override {}
  } transport;
  Rows rows = census_rows();
  rows[6].push_back(ViewEntry{1'000'000, true});
  rows[6].push_back(ViewEntry{PackedViewEntry::kMaxId, false});
  rows[7] = {ViewEntry{kCensusNodes, false}, ViewEntry{2, false}};
  for (NodeId u = 0; u < kCensusNodes; ++u) {
    for (std::size_t i = 0; i < rows[u].size(); i += 2) {
      Message m;
      m.from = 1;
      m.to = u;
      m.kind = MessageKind::kPush;
      m.payload = {rows[u][i], rows[u][i + 1]};
      cluster.node(u).on_message(m, rng, transport);
    }
    ASSERT_EQ(cluster.node(u).view().degree(), rows[u].size());
  }
  for (const NodeId u : kCensusDead) cluster.kill(u);
  std::vector<std::uint32_t> expected_indegree;
  const obs::FlatClusterProbe expected = reference_census(
      kCensusNodes, cfg.view_size, expected_indegree,
      [&](NodeId u) { return cluster.live(u); },
      [&](NodeId u) { return cluster.node(u).view().entries(); });
  EXPECT_EQ(expected.dependent_entries, 14u);
  for (std::size_t slices = 1; slices <= 4; ++slices) {
    SCOPED_TRACE(testing::Message() << slices << " slices");
    std::vector<std::uint32_t> occurrences;
    EXPECT_TRUE(sliced_probe(sim::ObjectViews{cluster}, slices,
                             /*components=*/false, occurrences) == expected);
    EXPECT_EQ(occurrences, expected_indegree);
  }
  std::vector<std::uint32_t> serial_occurrences;
  EXPECT_TRUE(sim::probe_cluster(cluster, &serial_occurrences) == expected);
  EXPECT_EQ(serial_occurrences, expected_indegree);
}

// An overlay of three interleaved islands (node u sits in island u % 5 < 3
// ? 0 : u % 5 - 2, so 60/20/20 percent), each a sparse ring in which every
// member's view holds its next two members. S&F never bridges the islands,
// every worker's node range holds members of all three, and the islands
// are sparse enough that their connectivity rests on the rows of every
// range, so the component census must join edges from every slice.
FlatSendForgetCluster island_cluster(std::size_t n) {
  FlatSendForgetCluster cluster(n, default_send_forget_config());
  std::vector<std::vector<NodeId>> islands(3);
  for (NodeId u = 0; u < n; ++u) {
    islands[u % 5 < 3 ? 0 : u % 5 - 2].push_back(u);
  }
  for (const std::vector<NodeId>& members : islands) {
    const std::size_t m = members.size();
    for (std::size_t i = 0; i < m; ++i) {
      cluster.install_view(members[i],
                           {members[(i + 1) % m], members[(i + 2) % m]});
    }
  }
  return cluster;
}

enum class Overlay { kSteady, kChurned, kDisconnected };

// The driver's merged phase-C probe at `threads` workers must equal the
// serial probe of the same quiescent cluster field for field, with the
// same occurrence census and the same component fraction as the recovery
// tracker's own serial census.
void expect_probe_matches_serial(Overlay overlay, std::size_t shards,
                                 std::size_t threads) {
  SCOPED_TRACE(testing::Message() << "overlay " << static_cast<int>(overlay)
                                  << ", " << shards << " shards on "
                                  << threads << " threads");
  const std::size_t n = 2'003;  // not a multiple of any shard count
  const SendForgetConfig cfg = default_send_forget_config();
  FlatSendForgetCluster cluster = overlay == Overlay::kDisconnected
                                      ? island_cluster(n)
                                      : regular_cluster(n, 3);
  sim::ShardedDriver driver(
      cluster, sim::ShardedDriverConfig{.shard_count = shards,
                                        .thread_count = threads,
                                        .loss_rate = 0.02,
                                        .seed = 17});
  const obs::RecoveryConfig recovery_config{.min_degree = cfg.min_degree,
                                            .view_size = cfg.view_size};
  obs::RecoveryTracker recovery(recovery_config);
  obs::RoundTimeSeries series(5);
  driver.attach_time_series(&series);
  driver.attach_recovery(&recovery);
  driver.run_rounds(40);
  std::vector<NodeId> killed;
  if (overlay == Overlay::kChurned) {
    // Kill a tenth of the nodes and sample again before S&F washes their
    // ids out of the live views.
    for (NodeId u = 3; u < n; u += 10) {
      driver.kill(u);
      killed.push_back(u);
    }
    driver.run_rounds(5);
  }

  std::vector<std::uint32_t> occurrences;
  const obs::FlatClusterProbe serial =
      obs::probe_cluster(cluster, &occurrences);
  obs::RecoveryTracker serial_recovery(recovery_config);
  serial_recovery.observe(driver.rounds_completed(), serial, &cluster, nullptr,
                          nullptr);

  obs::FlatClusterProbe merged = driver.last_probe();
  ASSERT_TRUE(merged.largest_component.has_value());
  EXPECT_EQ(recovery.component_fraction(),
            serial_recovery.component_fraction());
  merged.largest_component.reset();
  EXPECT_TRUE(merged == serial);
  EXPECT_EQ(merged.outdegree.mean, serial.outdegree.mean);
  EXPECT_EQ(merged.indegree.sd, serial.indegree.sd);
  EXPECT_EQ(merged.indegree_hist, serial.indegree_hist);
  EXPECT_EQ(driver.last_occurrences(), occurrences);

  EXPECT_EQ(serial.live_nodes, n - killed.size());
  std::uint64_t stale_refs = 0;
  for (const NodeId u : killed) {
    EXPECT_EQ(driver.last_occurrences()[u], obs::kDeadNodeOccurrence);
    for (NodeId v = 0; v < n; ++v) {
      if (!cluster.live(v)) continue;
      for (const NodeId id : cluster.view_ids(v)) stale_refs += id == u;
    }
  }
  if (overlay == Overlay::kChurned) {
    EXPECT_GT(stale_refs, 0u);
  }
  if (overlay == Overlay::kDisconnected) {
    // Island 0 holds the 1'203 nodes u with u % 5 < 3.
    EXPECT_EQ(recovery.component_fraction(), 1'203.0 / 2'003.0);
  } else {
    EXPECT_EQ(recovery.component_fraction(), 1.0);
  }
}

TEST(ObsParallel, MergedProbeMatchesSerialProbeAtEveryThreadCount) {
  const std::pair<std::size_t, std::size_t> layouts[] = {
      {4, 1}, {4, 2}, {4, 4}, {5, 4}, {8, 3}};
  for (const Overlay overlay :
       {Overlay::kSteady, Overlay::kChurned, Overlay::kDisconnected}) {
    for (const auto& [shards, threads] : layouts) {
      expect_probe_matches_serial(overlay, shards, threads);
    }
  }
}

// Largest weak component over live nodes by a union of every edge of
// every live row, the definition the two-pass census must reproduce.
std::uint64_t reference_largest_component(
    const FlatSendForgetCluster& cluster) {
  const std::size_t n = cluster.size();
  std::vector<NodeId> parent(n);
  std::iota(parent.begin(), parent.end(), 0u);
  const auto find = [&](NodeId x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (NodeId u = 0; u < n; ++u) {
    if (!cluster.live(u)) continue;
    for (const NodeId v : cluster.view_ids(u)) {
      if (cluster.live(v)) parent[find(u)] = find(v);
    }
  }
  std::vector<std::uint64_t> size(n, 0);
  std::uint64_t largest = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (cluster.live(u)) largest = std::max(largest, ++size[find(u)]);
  }
  return largest;
}

// (a) Connected only through slots past each row's first two occupied
// ones: those hold a dead node and the next node of the row's own parity,
// so pass 1 leaves the even and the odd nodes apart, and only pass 2's
// walk of the rows outside the larger half joins them.
FlatSendForgetCluster bridged_past_two_slots_cluster() {
  const NodeId m = 60;
  FlatSendForgetCluster cluster(m + 1, default_send_forget_config());
  for (NodeId u = 0; u < m; ++u) {
    cluster.install_view(u, {m, (u + 2) % m, (u + 4) % m, (u + 1) % m});
  }
  cluster.kill(m);
  return cluster;
}

// (b) One node, 39, whose row holds only its own id, and which only an
// in-edge from the giant component reaches: node 5 holds it past its first
// two slots. Pass 2 walks just row 39 and finds no way out; the in-degree
// excess (three occurrences, two of them in row 39) joins it.
FlatSendForgetCluster reached_only_inward_cluster() {
  const NodeId m = 39;
  FlatSendForgetCluster cluster(m + 1, default_send_forget_config());
  for (NodeId u = 0; u < m; ++u) {
    std::vector<NodeId> ids = {(u + 1) % m, (u + 2) % m};
    if (u == 5) ids.push_back(m);
    cluster.install_view(u, ids);
  }
  cluster.install_view(m, {m, m});
  return cluster;
}

// The component census against the union of every edge, at 1 to 4
// slices, on the overlays where pass 1 alone is not enough.
TEST(ObsParallel, ComponentCensusIsExactWherePassOneIsNot) {
  const std::pair<const char*, FlatSendForgetCluster> overlays[] = {
      {"bridged past two slots", bridged_past_two_slots_cluster()},
      {"reached only inward", reached_only_inward_cluster()},
      {"islands", island_cluster(2'003)}};
  const std::uint64_t expected[] = {60, 40, 1'203};
  for (std::size_t i = 0; i < std::size(overlays); ++i) {
    const auto& [name, cluster] = overlays[i];
    ASSERT_EQ(reference_largest_component(cluster), expected[i]) << name;
    for (std::size_t slices = 1; slices <= 4; ++slices) {
      SCOPED_TRACE(testing::Message() << name << ", " << slices << " slices");
      std::vector<std::uint32_t> occurrences;
      const obs::FlatClusterProbe probe = sliced_probe(
          obs::FlatViews(cluster), slices, /*components=*/true, occurrences);
      EXPECT_EQ(probe.largest_component, expected[i]);
      obs::FlatClusterProbe degrees = probe;
      degrees.largest_component.reset();
      std::vector<std::uint32_t> serial_occurrences;
      EXPECT_TRUE(degrees == obs::probe_cluster(cluster, &serial_occurrences));
      EXPECT_EQ(occurrences, serial_occurrences);
    }
  }
}

struct ChaosOutcome {
  std::uint64_t fingerprint = 0;
  obs::CumulativeCounters counters;
  std::string recovery_json;
  std::string oracle_json;
  std::string series_json;
  std::string snapshots;
};

// The chaos wiring — oracle, fault plane, flight recorder, recovery, a
// time series and a streamer with counter probes — attached in one of two
// orders. In the reversed order the streamer comes first and its probes
// are wired last, after every other attach call. `threads` = 0 runs one
// worker per shard.
// The chaos run's fault: a 6-round cut between the two halves of n ids.
sim::FaultPhase chaos_cut(std::size_t n) {
  sim::FaultPhase cut;
  cut.kind = sim::FaultKind::kPartition;
  cut.begin = 30;
  cut.end = 36;
  cut.a_lo = 0;
  cut.a_hi = static_cast<NodeId>(n / 2 - 1);
  cut.b_lo = static_cast<NodeId>(n / 2);
  cut.b_hi = static_cast<NodeId>(n - 1);
  cut.label = "split";
  return cut;
}

obs::TheoryPrediction chaos_prediction() {
  obs::TheoryPrediction prediction;
  prediction.loss = 0.02;
  prediction.delta = 0.01;
  prediction.alpha_lower_bound = 1.0 - 2.0 * (0.02 + 0.01);
  return prediction;
}

ChaosOutcome run_chaos_wiring(bool reversed, std::size_t shards = 2,
                              std::size_t threads = 0) {
  const std::size_t n = 2'000;
  const SendForgetConfig cfg = default_send_forget_config();
  FlatSendForgetCluster cluster = regular_cluster(n, 9);
  sim::ShardedDriver driver(
      cluster, sim::ShardedDriverConfig{.shard_count = shards,
                                        .thread_count = threads,
                                        .loss_rate = 0.02,
                                        .seed = 13});

  sim::FaultSchedule schedule;
  const sim::FaultPhase cut = chaos_cut(n);
  schedule.phases.push_back(cut);
  const sim::FaultPlane plane(schedule, n, shards);

  obs::TheoryOracle oracle(chaos_prediction(),
                           obs::OracleConfig{.warmup_rounds = 10});
  oracle.declare_fault_window(cut.begin, cut.end, /*grace_rounds=*/10);
  obs::RecoveryTracker recovery(obs::RecoveryConfig{
      .min_degree = cfg.min_degree, .view_size = cfg.view_size,
      .warmup_rounds = 10});
  recovery.declare_window(cut.begin, cut.end, cut.label);
  obs::RoundTimeSeries series(5);
  recovery.attach_series(&series);
  obs::FlightRecorder recorder(shards, 512);
  obs::SnapshotStreamer streamer(driver.metrics_registry(),
                                 obs::ExportConfig{.snapshot_stride = 5});
  std::ostringstream snapshots;
  streamer.add_sink(std::make_unique<obs::JsonlSnapshotSink>(snapshots));
  const auto wire_probes = [&streamer, &driver] {
    for (int i = 0; i < 8; ++i) {
      streamer.add_counter_probe("probe_" + std::to_string(i), [&driver] {
        return driver.rounds_completed();
      });
    }
  };

  if (!reversed) {
    wire_probes();
    driver.attach_oracle(&oracle);
    driver.attach_fault_plane(&plane);
    driver.attach_flight_recorder(&recorder);
    driver.attach_recovery(&recovery);
    driver.attach_time_series(&series);
    driver.attach_streamer(&streamer);
  } else {
    driver.attach_streamer(&streamer);
    driver.attach_time_series(&series);
    driver.attach_recovery(&recovery);
    driver.attach_flight_recorder(&recorder);
    driver.attach_fault_plane(&plane);
    driver.attach_oracle(&oracle);
    wire_probes();
  }
  driver.set_observation_stride(5);
  driver.run_rounds(60);

  ChaosOutcome out;
  out.fingerprint = cluster.fingerprint();
  out.counters = driver.cumulative_counters();
  std::ostringstream recovery_json;
  recovery.write_json(recovery_json);
  out.recovery_json = recovery_json.str();
  std::ostringstream oracle_json;
  oracle.write_json(oracle_json);
  out.oracle_json = oracle_json.str();
  std::ostringstream series_json;
  series.write_json(series_json);
  series.write_annotations_json(series_json);
  out.series_json = series_json.str();
  streamer.finish();
  out.snapshots = snapshots.str();
  return out;
}

TEST(ObsParallel, ChaosWiringIsIndependentOfAttachSequence) {
  const ChaosOutcome a = run_chaos_wiring(/*reversed=*/false);
  const ChaosOutcome b = run_chaos_wiring(/*reversed=*/true);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.counters.actions, 2'000u * 60u);
  EXPECT_GT(a.counters.faulted, 0u);
  EXPECT_EQ(a.counters.sent, a.counters.lost + a.counters.delivered +
                                 a.counters.to_dead + a.counters.faulted);
  EXPECT_EQ(a.counters.actions, b.counters.actions);
  EXPECT_EQ(a.counters.self_loops, b.counters.self_loops);
  EXPECT_EQ(a.counters.duplications, b.counters.duplications);
  EXPECT_EQ(a.counters.deletions, b.counters.deletions);
  EXPECT_EQ(a.counters.sent, b.counters.sent);
  EXPECT_EQ(a.counters.lost, b.counters.lost);
  EXPECT_EQ(a.counters.delivered, b.counters.delivered);
  EXPECT_EQ(a.counters.to_dead, b.counters.to_dead);
  EXPECT_EQ(a.counters.faulted, b.counters.faulted);
  EXPECT_EQ(a.counters.ids_accepted, b.counters.ids_accepted);
  EXPECT_EQ(a.recovery_json, b.recovery_json);
  EXPECT_EQ(a.oracle_json, b.oracle_json);
}

// The full chaos wiring at 1, 2 and 4 worker threads over the same 4
// shards: the parallel observe phase must leave every observer output
// byte-identical.
TEST(ObsParallel, ChaosWiringIsIndependentOfThreadCount) {
  const ChaosOutcome base = run_chaos_wiring(/*reversed=*/false, 4, 1);
  EXPECT_GT(base.counters.faulted, 0u);
  EXPECT_FALSE(base.snapshots.empty());
  EXPECT_NE(base.recovery_json.find("\"label\":\"split\""),
            std::string::npos);
  for (const std::size_t threads : {2, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    const ChaosOutcome other = run_chaos_wiring(/*reversed=*/false, 4, threads);
    EXPECT_EQ(base.fingerprint, other.fingerprint);
    EXPECT_EQ(base.snapshots, other.snapshots);
    EXPECT_EQ(base.recovery_json, other.recovery_json);
    EXPECT_EQ(base.oracle_json, other.oracle_json);
    EXPECT_EQ(base.series_json, other.series_json);
  }
}

// run_chaos_wiring's run as a RunSpec.
sim::RunSpec chaos_spec(std::size_t shards, std::size_t threads) {
  sim::RunSpec spec;
  spec.nodes = 2'000;
  spec.graph_seed = 9;
  spec.shards = shards;
  spec.threads = threads;
  spec.loss = 0.02;
  spec.seed = 13;
  spec.rounds = 60;
  spec.faults.phases.push_back(chaos_cut(spec.nodes));
  spec.grace = 10;
  spec.stride = 5;
  spec.series = true;
  spec.prediction = chaos_prediction();
  spec.oracle_warmup = 10;
  spec.recovery = true;
  spec.recovery_warmup = 10;
  spec.recorder_capacity = 512;
  spec.snapshot_stride = 5;
  spec.keep_snapshots = true;
  return spec;
}

ChaosOutcome run_chaos_pipeline(std::size_t shards, std::size_t threads) {
  sim::FlatRun run(chaos_spec(shards, threads));
  for (int i = 0; i < 8; ++i) {
    run.streamer()->add_counter_probe(
        "probe_" + std::to_string(i),
        [&run] { return run.driver().rounds_completed(); });
  }
  run.run();

  ChaosOutcome out;
  out.fingerprint = run.cluster().fingerprint();
  out.counters = run.driver().cumulative_counters();
  std::ostringstream recovery_json;
  run.recovery()->write_json(recovery_json);
  out.recovery_json = recovery_json.str();
  std::ostringstream oracle_json;
  run.oracle()->write_json(oracle_json);
  out.oracle_json = oracle_json.str();
  std::ostringstream series_json;
  run.series()->write_json(series_json);
  run.series()->write_annotations_json(series_json);
  out.series_json = series_json.str();
  out.snapshots = run.snapshots();
  return out;
}

void expect_same_counters(const obs::CumulativeCounters& a,
                          const obs::CumulativeCounters& b) {
  EXPECT_EQ(a.actions, b.actions);
  EXPECT_EQ(a.self_loops, b.self_loops);
  EXPECT_EQ(a.duplications, b.duplications);
  EXPECT_EQ(a.deletions, b.deletions);
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.to_dead, b.to_dead);
  EXPECT_EQ(a.faulted, b.faulted);
  EXPECT_EQ(a.ids_accepted, b.ids_accepted);
}

// The run pipeline builds the same run as the hand-wired chaos wiring:
// same fingerprint, counters, snapshot bytes and observer JSON, at every
// thread count over the same 4 shards.
TEST(RunPipeline, FlatRunMatchesHandWiredChaosRun) {
  for (const std::size_t threads : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    const ChaosOutcome wired = run_chaos_wiring(/*reversed=*/false, 4, threads);
    const ChaosOutcome built = run_chaos_pipeline(4, threads);
    EXPECT_GT(built.counters.faulted, 0u);
    EXPECT_FALSE(built.snapshots.empty());
    EXPECT_EQ(wired.fingerprint, built.fingerprint);
    expect_same_counters(wired.counters, built.counters);
    EXPECT_EQ(wired.snapshots, built.snapshots);
    EXPECT_EQ(wired.recovery_json, built.recovery_json);
    EXPECT_EQ(wired.oracle_json, built.oracle_json);
    EXPECT_EQ(wired.series_json, built.series_json);
  }
}

sim::RunSpec churn_spec() {
  sim::RunSpec spec;
  spec.nodes = 2'000;
  spec.graph_seed = 5;
  spec.shards = 4;
  spec.loss = 0.02;
  spec.seed = 21;
  spec.rounds = 40;
  return spec;
}

// Per-round churn: one random kill while more than n/2 are live, and a
// revive of the last killed node with probability 1/2, every round.
TEST(RunPipeline, PerRoundChurnMatchesHandWrittenLoop) {
  sim::RunSpec spec = churn_spec();
  spec.churn = true;
  sim::FlatRun run(spec);
  run.run();

  FlatSendForgetCluster cluster = regular_cluster(spec.nodes, spec.graph_seed);
  sim::ShardedDriver driver(
      cluster, sim::ShardedDriverConfig{.shard_count = spec.shards,
                                        .loss_rate = spec.loss,
                                        .seed = spec.seed});
  std::vector<NodeId> dead;
  std::size_t events = 0;
  for (std::size_t r = 0; r < spec.rounds; ++r) {
    Rng& rng = driver.churn_rng();
    const auto victim = static_cast<NodeId>(rng.uniform(spec.nodes));
    if (cluster.live(victim) && cluster.live_count() > spec.nodes / 2) {
      driver.kill(victim);
      dead.push_back(victim);
      ++events;
    }
    if (!dead.empty() && rng.bernoulli(0.5)) {
      driver.revive(dead.back());
      dead.pop_back();
      ++events;
    }
    driver.run_rounds(1);
  }
  EXPECT_GT(events, spec.rounds);
  EXPECT_EQ(run.churn_events(), events);
  EXPECT_EQ(run.cluster().live_count(), cluster.live_count());
  EXPECT_EQ(run.cluster().fingerprint(), cluster.fingerprint());
}

// Mass kill: 20% of the nodes, distinct and live, drawn from the churn
// stream before round 15.
TEST(RunPipeline, MassKillMatchesHandWrittenLoop) {
  sim::RunSpec spec = churn_spec();
  spec.kill_fraction = 0.2;
  spec.kill_round = 15;
  sim::FlatRun run(spec);
  run.run();

  FlatSendForgetCluster cluster = regular_cluster(spec.nodes, spec.graph_seed);
  sim::ShardedDriver driver(
      cluster, sim::ShardedDriverConfig{.shard_count = spec.shards,
                                        .loss_rate = spec.loss,
                                        .seed = spec.seed});
  driver.run_rounds(spec.kill_round);
  std::size_t killed = 0;
  while (killed < spec.nodes / 5) {
    const auto victim =
        static_cast<NodeId>(driver.churn_rng().uniform(spec.nodes));
    if (cluster.live(victim)) {
      driver.kill(victim);
      ++killed;
    }
  }
  driver.run_rounds(spec.rounds - spec.kill_round);
  EXPECT_EQ(run.killed(), killed);
  EXPECT_EQ(run.cluster().live_count(), spec.nodes - killed);
  EXPECT_EQ(run.cluster().fingerprint(), cluster.fingerprint());
}

}  // namespace
}  // namespace gossip
