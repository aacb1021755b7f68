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
#include <vector>

#include "core/flat_send_forget.hpp"
#include "graph/graph_gen.hpp"
#include "obs/export/snapshot.hpp"
#include "obs/oracle/flight_recorder.hpp"
#include "obs/oracle/theory_oracle.hpp"
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

struct ChaosOutcome {
  std::uint64_t fingerprint = 0;
  obs::CumulativeCounters counters;
  std::string recovery_json;
  std::string oracle_json;
};

// The chaos wiring — oracle, fault plane, flight recorder, recovery and a
// streamer with counter probes — attached in one of two orders. In the
// reversed order the streamer comes first and its probes are wired last,
// after every other attach call.
ChaosOutcome run_chaos_wiring(bool reversed) {
  const std::size_t n = 2'000;
  const std::size_t shards = 2;
  const SendForgetConfig cfg = default_send_forget_config();
  FlatSendForgetCluster cluster = regular_cluster(n, 9);
  sim::ShardedDriver driver(
      cluster, sim::ShardedDriverConfig{
                   .shard_count = shards, .loss_rate = 0.02, .seed = 13});

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
    driver.attach_streamer(&streamer);
  } else {
    driver.attach_streamer(&streamer);
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

}  // namespace
}  // namespace gossip
