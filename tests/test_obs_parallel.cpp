// Thread-safety of the observability hot path. Built with the tsan label:
// the registry's claim — unsynchronized per-shard slabs with no false
// sharing and no cross-shard writes — must hold under ThreadSanitizer, and
// an observed multi-threaded sharded run must stay on the deterministic
// fingerprint contract.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/flat_send_forget.hpp"
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
#include "sim/fault_plane.hpp"
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
    const Digraph g = permutation_regular(n, cfg.min_degree, rng);
    for (NodeId u = 0; u < n; ++u) cluster.install_view(u, g.out_neighbors(u));
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
  const Digraph g = permutation_regular(n, cfg.min_degree, rng);
  for (NodeId u = 0; u < n; ++u) cluster.install_view(u, g.out_neighbors(u));
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
      obs::ProbeSlices().run(obs::FlatViews(cluster), /*degrees=*/true,
                             /*components=*/true, &serial_occurrences);
  // The chain pieces: evens 0..38 and 42..96, odds 1..39 and 43..95.
  ASSERT_TRUE(serial.largest_component.has_value());
  EXPECT_EQ(*serial.largest_component, 28u);
  EXPECT_EQ(serial_occurrences[40], obs::kDeadNodeOccurrence);

  for (const std::size_t slices : {2, 3, 5}) {
    SCOPED_TRACE(testing::Message() << slices << " slices");
    obs::ProbeSlices probe;
    std::vector<std::uint32_t> occurrences;
    probe.prepare(n, slices, /*degrees=*/true, /*components=*/true,
                  &occurrences);
    for (std::size_t k = slices; k-- > 0;) {
      probe.slice(obs::FlatViews(cluster), k,
                  static_cast<NodeId>(k * n / slices),
                  static_cast<NodeId>((k + 1) * n / slices));
    }
    EXPECT_TRUE(probe.merge(obs::FlatViews(cluster)) == serial);
    EXPECT_EQ(occurrences, serial_occurrences);
  }
}

// An overlay of three interleaved islands (node u sits in island u % 5 < 3
// ? 0 : u % 5 - 2, so 60/20/20 percent), each a sparse ring in which every
// member's view holds its next two members. S&F never bridges the islands,
// every worker's node range holds members of all three, and the islands
// are sparse enough that their connectivity rests on the rows of every
// range, so the component census must merge all slices' forests.
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
  if (overlay == Overlay::kChurned) EXPECT_GT(stale_refs, 0u);
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
  sim::FaultPhase cut;
  cut.kind = sim::FaultKind::kPartition;
  cut.begin = 30;
  cut.end = 36;
  cut.a_lo = 0;
  cut.a_hi = n / 2 - 1;
  cut.b_lo = n / 2;
  cut.b_hi = n - 1;
  cut.label = "split";
  schedule.phases.push_back(cut);
  const sim::FaultPlane plane(schedule, n, shards);

  obs::TheoryPrediction prediction;
  prediction.loss = 0.02;
  prediction.delta = 0.01;
  prediction.alpha_lower_bound = 1.0 - 2.0 * (0.02 + 0.01);
  obs::TheoryOracle oracle(prediction,
                           obs::OracleConfig{.warmup_rounds = 10,
                                             .min_sent_for_rates = 1'000});
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

}  // namespace
}  // namespace gossip
