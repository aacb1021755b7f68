// The observability layer: metrics registry, phase profiler, solver
// telemetry, round time-series, and the invariant watchdog — including the
// determinism contract (bit-identical registry dumps for a fixed
// (seed, shard_count)) and a clean loss+churn integration run that must
// produce zero watchdog violations.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/degree_mc.hpp"
#include "core/flat_send_forget.hpp"
#include "graph/graph_gen.hpp"
#include "graph/spectral.hpp"
#include "markov/sparse_chain.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/solver_telemetry.hpp"
#include "obs/timeseries.hpp"
#include "obs/watchdog.hpp"
#include "sim/sharded_driver.hpp"

namespace gossip {
namespace {

// ------------------------------------------------------------- registry

TEST(MetricsRegistry, CountersMergeAcrossShards) {
  obs::MetricsRegistry reg(3);
  const obs::CounterId a = reg.counter("alpha");
  const obs::CounterId b = reg.counter("beta");
  reg.add(a, 0, 5);
  reg.add(a, 1, 7);
  reg.add(a, 2);
  reg.add(b, 1, 100);
  EXPECT_EQ(reg.counter_value(a), 13u);
  EXPECT_EQ(reg.counter_value(b), 100u);
  // Registration is idempotent per name: same dense index back.
  EXPECT_EQ(reg.counter("alpha").index, a.index);
  EXPECT_EQ(reg.counter_count(), 2u);
}

TEST(MetricsRegistry, GaugesAreDesignatedWriter) {
  obs::MetricsRegistry reg(4);
  const obs::GaugeId g = reg.gauge("live");
  reg.set(g, 0, 42.5);
  EXPECT_DOUBLE_EQ(reg.gauge_value(g), 42.5);
  reg.set(g, 0, 7.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value(g), 7.0);
}

TEST(MetricsRegistry, HistogramBucketsByUpperBound) {
  obs::MetricsRegistry reg(2);
  const obs::HistogramId h = reg.histogram("lat", {1.0, 2.0, 5.0});
  reg.observe(h, 0, 0.5);   // le=1
  reg.observe(h, 0, 1.0);   // le=1 (inclusive upper bound)
  reg.observe(h, 1, 3.0);   // le=5
  reg.observe(h, 1, 100.0); // +inf
  const std::vector<std::uint64_t> counts = reg.histogram_counts(h);
  ASSERT_EQ(counts.size(), 4u);  // 3 finite bounds + inf
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
}

TEST(MetricsRegistry, DumpIsDeterministicAndResetKeepsRegistrations) {
  obs::MetricsRegistry reg(2);
  const obs::CounterId c = reg.counter("sent");
  const obs::GaugeId g = reg.gauge("round");
  const obs::HistogramId h = reg.histogram("deg", {10.0});
  reg.add(c, 1, 3);
  reg.set(g, 0, 9.0);
  reg.observe(h, 0, 4.0);
  const std::string d1 = reg.dump();
  EXPECT_NE(d1.find("counter sent 3"), std::string::npos);
  EXPECT_NE(d1.find("gauge round"), std::string::npos);
  EXPECT_NE(d1.find("hist deg"), std::string::npos);
  EXPECT_EQ(reg.dump(), d1);  // pure
  reg.reset();
  EXPECT_EQ(reg.counter_value(c), 0u);
  EXPECT_EQ(reg.counter("sent").index, c.index);
  std::ostringstream json;
  reg.write_json(json);
  EXPECT_NE(json.str().find("\"counters\""), std::string::npos);
  std::ostringstream csv;
  reg.write_csv(csv);
  EXPECT_NE(csv.str().find("kind,name,bucket,value"), std::string::npos);
}

// Runs the sharded driver with churn and full observation attached;
// returns the registry dump and the cluster fingerprint.
std::pair<std::string, std::uint64_t> observed_run(std::size_t shards) {
  const std::size_t n = 600;
  const SendForgetConfig cfg = default_send_forget_config();
  Rng rng(99);
  FlatSendForgetCluster cluster(n, cfg);
  cluster.install_graph(permutation_regular(n, cfg.min_degree, rng));
  sim::ShardedDriver driver(
      cluster, sim::ShardedDriverConfig{
                   .shard_count = shards, .loss_rate = 0.05, .seed = 42});
  obs::RoundTimeSeries series(5);
  obs::InvariantWatchdog watchdog(obs::WatchdogConfig{
      .min_degree = cfg.min_degree, .view_size = cfg.view_size});
  driver.attach_time_series(&series);
  driver.attach_watchdog(&watchdog);
  std::vector<NodeId> dead;
  for (std::size_t r = 0; r < 40; ++r) {
    Rng& crng = driver.churn_rng();
    const auto victim = static_cast<NodeId>(crng.uniform(n));
    if (cluster.live(victim) && cluster.live_count() > n / 2) {
      driver.kill(victim);
      dead.push_back(victim);
    }
    if (!dead.empty() && crng.bernoulli(0.5)) {
      driver.revive(dead.back());
      dead.pop_back();
    }
    driver.run_rounds(1);
  }
  return {driver.metrics_registry().dump(), cluster.fingerprint()};
}

// The determinism contract: for a fixed (seed, shard_count) the registry
// dump — merged in fixed shard order — is bit-identical across runs, with
// observation attached (which must draw no randomness).
TEST(ShardedObservability, RegistryDumpBitIdenticalAcrossRuns) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}, std::size_t{8}}) {
    const auto [dump_a, fp_a] = observed_run(shards);
    const auto [dump_b, fp_b] = observed_run(shards);
    EXPECT_EQ(dump_a, dump_b) << "shard_count=" << shards;
    EXPECT_EQ(fp_a, fp_b) << "shard_count=" << shards;
    EXPECT_NE(dump_a.find("counter actions_initiated"), std::string::npos);
  }
}

// ------------------------------------------------------------- profiler

TEST(PhaseProfiler, ScopesAggregatePerShardPerPhase) {
  obs::PhaseProfiler prof(2);
  const obs::PhaseId init = prof.phase("initiate");
  const obs::PhaseId drain = prof.phase("drain");
  EXPECT_EQ(prof.phase("initiate").index, init.index);  // idempotent
  prof.add(init, 0, 100);
  prof.add(init, 1, 50);
  prof.add(drain, 1, 7);
  { const obs::PhaseProfiler::Scope timer(&prof, init, 0); }
  { const obs::PhaseProfiler::Scope noop(nullptr, init, 0); }  // must not crash
  const auto totals = prof.totals();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0].name, "initiate");
  EXPECT_GE(totals[0].nanos, 150u);
  EXPECT_EQ(totals[0].count, 3u);
  EXPECT_EQ(totals[1].nanos, 7u);
  std::ostringstream json;
  prof.write_json(json);
  EXPECT_NE(json.str().find("\"per_shard_nanos\""), std::string::npos);
}

// ------------------------------------------------------- solver telemetry

TEST(SolverTelemetry, RecordingSinkCountsAndResiduals) {
  obs::RecordingSolverSink sink;
  sink.on_iteration("outer", 1, 0.5);
  sink.on_iteration("outer", 2, 0.25);
  sink.on_iteration("inner", 1, 0.9);
  sink.on_event("outer", "history_reset", 2);
  EXPECT_EQ(sink.iteration_count("outer"), 2u);
  EXPECT_EQ(sink.iteration_count("inner"), 1u);
  EXPECT_EQ(sink.event_count("outer", "history_reset"), 1u);
  EXPECT_EQ(sink.event_count("outer", "cooldown"), 0u);
  EXPECT_DOUBLE_EQ(sink.last_residual("outer"), 0.25);
  EXPECT_TRUE(std::isnan(sink.last_residual("absent")));
  std::ostringstream json;
  sink.write_json(json);
  EXPECT_NE(json.str().find("\"history_reset\""), std::string::npos);
  sink.clear();
  EXPECT_EQ(sink.iteration_count("outer"), 0u);
}

// The sink's view of the degree-MC solve must agree with the iteration
// counters the solver itself reports in its result diagnostics.
TEST(SolverTelemetry, DegreeMcSinkMatchesResultDiagnostics) {
  obs::RecordingSolverSink sink;
  analysis::DegreeMcParams params;
  params.view_size = 12;
  params.min_degree = 4;
  params.loss = 0.05;
  params.telemetry = &sink;
  const analysis::DegreeMcResult result = analysis::solve_degree_mc(params);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(sink.iteration_count("degree_mc_outer"),
            result.fixed_point_iterations);
  EXPECT_EQ(sink.iteration_count("degree_mc_inner"),
            result.stationary_iterations);
  // Outer residuals must be recorded and end below the solver's tolerance
  // scale.
  ASSERT_GT(sink.iteration_count("degree_mc_outer"), 0u);
  EXPECT_LT(sink.last_residual("degree_mc_outer"), 1e-8);
}

TEST(SolverTelemetry, StationaryPowerIterationReports) {
  // 3-state ring chain with a slight asymmetry.
  markov::SparseChain chain(3);
  chain.add(0, 1, 0.6);
  chain.add(1, 2, 0.6);
  chain.add(2, 0, 0.6);
  chain.finalize();
  obs::RecordingSolverSink sink;
  const auto result =
      chain.stationary({}, 1e-12, 10'000, /*accelerated=*/true, &sink,
                       "stationary");
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(sink.iteration_count("stationary"), result.iterations);
}

TEST(SolverTelemetry, SpectralPowerIterationReports) {
  Rng rng(5);
  const Digraph overlay = permutation_regular(400, 8, rng);
  obs::RecordingSolverSink sink;
  SpectralOptions options;
  options.telemetry = &sink;
  const SpectralResult result = estimate_spectral_gap(overlay, options);
  EXPECT_EQ(sink.iteration_count("spectral_power"), result.iterations);
  ASSERT_GT(result.iterations, 0u);
}

// ------------------------------------------------------------- watchdog

TEST(Watchdog, FlagsInjectedOddDegreeWithNodeRoundShard) {
  const SendForgetConfig cfg{.view_size = 8, .min_degree = 2};
  FlatSendForgetCluster cluster(8, cfg);
  for (NodeId u = 0; u < 8; ++u) cluster.install_view(u, {(u + 1) % 8, (u + 2) % 8});
  cluster.install_view(6, {0, 1, 2});  // odd outdegree: violates Obs 5.1
  obs::InvariantWatchdog watchdog(obs::WatchdogConfig{
      .min_degree = cfg.min_degree, .view_size = cfg.view_size});
  watchdog.check_cluster(/*round=*/7, cluster, /*nodes_per_shard=*/4);
  ASSERT_EQ(watchdog.violation_count(), 1u);
  const obs::Violation& v = watchdog.log().front();
  EXPECT_EQ(v.kind, obs::ViolationKind::kOddOutdegree);
  EXPECT_EQ(v.node, 6u);
  EXPECT_EQ(v.round, 7u);
  EXPECT_EQ(v.shard, 1u);  // node 6 with 4 nodes per shard
  EXPECT_DOUBLE_EQ(v.observed, 3.0);
}

TEST(Watchdog, DegreeEnvelopeChecks) {
  obs::InvariantWatchdog watchdog(
      obs::WatchdogConfig{.min_degree = 18, .view_size = 40});
  // Below dL is suppressed during warmup, reported after.
  watchdog.check_degree(/*round=*/10, /*node=*/3, /*shard=*/0, 10);
  EXPECT_EQ(watchdog.violation_count(), 0u);
  watchdog.check_degree(/*round=*/150, /*node=*/3, /*shard=*/2, 10);
  ASSERT_EQ(watchdog.violation_count(), 1u);
  EXPECT_EQ(watchdog.log()[0].kind, obs::ViolationKind::kOutdegreeBelowMin);
  EXPECT_EQ(watchdog.log()[0].shard, 2u);
  // Above s and odd are reported even during warmup.
  watchdog.check_degree(/*round=*/1, /*node=*/4, /*shard=*/0, 42);
  watchdog.check_degree(/*round=*/1, /*node=*/5, /*shard=*/0, 21);
  EXPECT_EQ(watchdog.violation_count(), 3u);
  EXPECT_EQ(watchdog.log()[1].kind, obs::ViolationKind::kOutdegreeAboveMax);
  EXPECT_EQ(watchdog.log()[2].kind, obs::ViolationKind::kOddOutdegree);
}

TEST(Watchdog, MailboxConservationExact) {
  obs::InvariantWatchdog watchdog(
      obs::WatchdogConfig{.min_degree = 18, .view_size = 40});
  obs::CumulativeCounters ok;
  ok.sent = 100;
  ok.lost = 10;
  ok.delivered = 85;
  ok.to_dead = 5;
  watchdog.check_conservation(3, ok);
  EXPECT_EQ(watchdog.violation_count(), 0u);
  ok.delivered = 84;  // one message unaccounted for
  watchdog.check_conservation(4, ok);
  ASSERT_EQ(watchdog.violation_count(), 1u);
  EXPECT_EQ(watchdog.log()[0].kind, obs::ViolationKind::kMailboxConservation);
  EXPECT_EQ(watchdog.log()[0].round, 4u);
}

TEST(Watchdog, RateChecksUsePostWarmupWindow) {
  obs::WatchdogConfig config{.min_degree = 18, .view_size = 40};
  config.warmup_rounds = 10;
  config.min_sent_for_rates = 1'000;
  obs::InvariantWatchdog watchdog(config);
  // Bootstrap-heavy counters before warmup: ignored entirely.
  obs::CumulativeCounters boot;
  boot.sent = 50'000;
  boot.duplications = 45'000;  // dup rate 0.9, way out of bounds
  boot.lost = 1'000;
  watchdog.check_rates(5, boot);
  EXPECT_EQ(watchdog.violation_count(), 0u);
  // First post-warmup call only snapshots the baseline.
  watchdog.check_rates(10, boot);
  EXPECT_EQ(watchdog.violation_count(), 0u);
  // Healthy window: dup ~= loss + del relative to the baseline.
  obs::CumulativeCounters healthy = boot;
  healthy.sent += 100'000;
  healthy.duplications += 2'100;
  healthy.lost += 2'000;
  healthy.deletions += 80;
  watchdog.check_rates(20, healthy);
  EXPECT_EQ(watchdog.violation_count(), 0u);
  // Pathological window: duplication rate far above the Lemma 6.7 bound.
  obs::CumulativeCounters bad = healthy;
  bad.sent += 100'000;
  bad.duplications += 60'000;
  bad.lost += 2'000;
  watchdog.check_rates(30, bad);
  ASSERT_GE(watchdog.violation_count(), 1u);
  EXPECT_EQ(watchdog.log()[0].kind,
            obs::ViolationKind::kDuplicationRateBound);
}

TEST(Watchdog, ReportAndJsonNameViolations) {
  obs::InvariantWatchdog watchdog(
      obs::WatchdogConfig{.min_degree = 18, .view_size = 40});
  watchdog.check_degree(1, 9, 0, 21);
  const std::string report = watchdog.report();
  EXPECT_NE(report.find("odd_outdegree"), std::string::npos);
  EXPECT_NE(report.find("node=9"), std::string::npos);
  std::ostringstream json;
  watchdog.write_json(json);
  EXPECT_NE(json.str().find("\"violations\":1"), std::string::npos);
}

// The paper's invariants must actually hold on a standard loss+churn run:
// a dL-seeded sharded simulation with 5% loss and kill/revive churn runs
// past the warmup with every check enabled and zero violations.
TEST(Watchdog, CleanOnLossChurnIntegrationRun) {
  const std::size_t n = 2'000;
  const SendForgetConfig cfg = default_send_forget_config();
  Rng rng(17);
  FlatSendForgetCluster cluster(n, cfg);
  cluster.install_graph(permutation_regular(n, cfg.min_degree, rng));
  sim::ShardedDriver driver(
      cluster, sim::ShardedDriverConfig{
                   .shard_count = 4, .loss_rate = 0.05, .seed = 23});
  obs::RoundTimeSeries series(10);
  obs::InvariantWatchdog watchdog(obs::WatchdogConfig{
      .min_degree = cfg.min_degree, .view_size = cfg.view_size});
  driver.attach_time_series(&series);
  driver.attach_watchdog(&watchdog);
  std::vector<NodeId> dead;
  for (std::size_t r = 0; r < 150; ++r) {
    Rng& crng = driver.churn_rng();
    const auto victim = static_cast<NodeId>(crng.uniform(n));
    if (cluster.live(victim) && cluster.live_count() > n / 2) {
      driver.kill(victim);
      dead.push_back(victim);
    }
    if (!dead.empty() && crng.bernoulli(0.5)) {
      driver.revive(dead.back());
      dead.pop_back();
    }
    driver.run_rounds(1);
  }
  EXPECT_GT(watchdog.checks_run(), 10'000u);
  EXPECT_EQ(watchdog.violation_count(), 0u) << watchdog.report();
  EXPECT_EQ(series.samples().size(), 15u);
}

// The violation path end to end: corruption injected into a *running*
// driver must surface through the driver's own observation hook, with the
// node/round/shard attribution a post-mortem needs. (The unit tests above
// call the check_* methods directly; these go through run_rounds.)
TEST(Watchdog, DriverSurfacesInjectedViewCorruption) {
  const std::size_t n = 64;
  const SendForgetConfig cfg{.view_size = 8, .min_degree = 2};
  Rng rng(5);
  FlatSendForgetCluster cluster(n, cfg);
  cluster.install_graph(permutation_regular(n, cfg.min_degree, rng));
  sim::ShardedDriver driver(
      cluster, sim::ShardedDriverConfig{
                   .shard_count = 2, .loss_rate = 0.0, .seed = 3});
  obs::InvariantWatchdog watchdog(obs::WatchdogConfig{
      .min_degree = cfg.min_degree, .view_size = cfg.view_size});
  driver.attach_watchdog(&watchdog);

  driver.run_rounds(2);
  EXPECT_EQ(watchdog.violation_count(), 0u) << watchdog.report();

  // Odd outdegree violates Obs 5.1, and the protocol preserves degree
  // parity (every action moves an outdegree by 0 or 2), so the corruption
  // survives the next round to its quiescent observation point.
  const NodeId victim = 40;
  cluster.install_view(victim, {1});
  driver.run_rounds(1);
  ASSERT_GE(watchdog.violation_count(), 1u);
  const obs::Violation& v = watchdog.log().front();
  EXPECT_EQ(v.kind, obs::ViolationKind::kOddOutdegree);
  EXPECT_EQ(v.node, victim);
  EXPECT_EQ(v.round, 3u);
  EXPECT_EQ(v.shard, victim / ((n + 1) / 2));  // ceil(n / shard_count)
}

TEST(Watchdog, DriverSurfacesFabricatedMailboxImbalance) {
  const std::size_t n = 64;
  const SendForgetConfig cfg{.view_size = 8, .min_degree = 2};
  Rng rng(6);
  FlatSendForgetCluster cluster(n, cfg);
  cluster.install_graph(permutation_regular(n, cfg.min_degree, rng));
  sim::ShardedDriver driver(
      cluster, sim::ShardedDriverConfig{
                   .shard_count = 2, .loss_rate = 0.05, .seed = 9});
  obs::InvariantWatchdog watchdog(obs::WatchdogConfig{
      .min_degree = cfg.min_degree, .view_size = cfg.view_size});
  driver.attach_watchdog(&watchdog);

  driver.run_rounds(3);
  EXPECT_EQ(watchdog.violation_count(), 0u) << watchdog.report();

  // Fabricate messages that were "sent" but never resolve: bump the sent
  // counter behind the driver's back (the name lookup is idempotent, so no
  // slab reallocation disturbs the driver's cached pointers). The next
  // quiescent observation must flag sent != lost + delivered + to_dead.
  obs::MetricsRegistry& registry = driver.metrics_registry();
  registry.add(registry.counter("messages_sent"), 0, 1000);
  driver.run_rounds(1);
  ASSERT_GE(watchdog.violation_count(), 1u);
  const obs::Violation& v = watchdog.log().front();
  EXPECT_EQ(v.kind, obs::ViolationKind::kMailboxConservation);
  EXPECT_EQ(v.round, 4u);
}

// ----------------------------------------------------------- time-series

TEST(RoundTimeSeries, StrideGatesAndRatesAreIntervals) {
  obs::RoundTimeSeries series(5);
  EXPECT_TRUE(series.due(5));
  EXPECT_FALSE(series.due(7));
  obs::DegreeSummary deg{20.0, 1.0, 18, 24};
  obs::CumulativeCounters c1;
  c1.actions = 1'000;
  c1.sent = 800;
  c1.duplications = 40;
  c1.lost = 16;
  c1.self_loops = 200;
  series.record(5, deg, deg, 100, 0.5, c1);
  obs::CumulativeCounters c2 = c1;
  c2.actions += 1'000;
  c2.sent += 1'000;
  c2.duplications += 30;
  c2.lost += 20;
  c2.to_dead += 10;
  series.record(10, deg, deg, 100, 0.5, c2);
  ASSERT_EQ(series.samples().size(), 2u);
  // First row covers everything since the start.
  EXPECT_NEAR(series.samples()[0].duplication_rate, 40.0 / 800.0, 1e-12);
  // Second row is the interval 5 -> 10 only.
  EXPECT_NEAR(series.samples()[1].duplication_rate, 30.0 / 1000.0, 1e-12);
  EXPECT_NEAR(series.samples()[1].loss_rate, 30.0 / 1000.0, 1e-12);
  std::ostringstream csv;
  series.write_csv(csv);
  EXPECT_NE(csv.str().find("round,live_nodes,out_mean"), std::string::npos);
  std::ostringstream json;
  series.write_json(json);
  EXPECT_NE(json.str().find("\"duplication_rate\""), std::string::npos);
}

TEST(RoundTimeSeries, ClampsShrinkingCumulatives) {
  // Live-only aggregation under churn can make "cumulative" counters
  // shrink between samples; rates clamp at zero instead of underflowing.
  obs::RoundTimeSeries series(1);
  obs::DegreeSummary deg{20.0, 1.0, 18, 24};
  obs::CumulativeCounters c1;
  c1.sent = 1'000;
  c1.duplications = 100;
  series.record(1, deg, deg, 10, 0.0, c1);
  obs::CumulativeCounters c2;
  c2.sent = 1'500;
  c2.duplications = 50;  // shrank: duplication delta clamps to 0
  series.record(2, deg, deg, 10, 0.0, c2);
  EXPECT_DOUBLE_EQ(series.samples()[1].duplication_rate, 0.0);
}

TEST(RoundTimeSeries, StrideLargerThanRunLengthYieldsNoSamples) {
  // A sharded run shorter than the observation stride must simply record
  // nothing — not crash, not emit a partial row.
  FlatSendForgetCluster cluster(
      256, SendForgetConfig{.view_size = 16, .min_degree = 4});
  Rng graph_rng(7);
  cluster.install_graph(permutation_regular(cluster.size(), 4, graph_rng));
  sim::ShardedDriver driver(
      cluster,
      sim::ShardedDriverConfig{.shard_count = 1, .loss_rate = 0.0, .seed = 1});
  obs::RoundTimeSeries series(1000);
  driver.attach_time_series(&series);
  driver.run_rounds(50);
  EXPECT_TRUE(series.samples().empty());
  std::ostringstream csv;
  series.write_csv(csv);
  // Header only.
  EXPECT_NE(csv.str().find("round,"), std::string::npos);
  EXPECT_EQ(csv.str().find("\n50,"), std::string::npos);
}

TEST(RoundTimeSeries, AnnotationOnFinalRoundIsKept) {
  obs::RoundTimeSeries series(10);
  obs::DegreeSummary deg{20.0, 1.0, 18, 24};
  series.record(10, deg, deg, 100, 0.0, obs::CumulativeCounters{});
  series.record(20, deg, deg, 100, 0.0, obs::CumulativeCounters{});
  series.annotate(20, "final-round-marker");
  ASSERT_EQ(series.annotations().size(), 1u);
  EXPECT_EQ(series.annotations().back().round, 20u);
  std::ostringstream json;
  series.write_annotations_json(json);
  EXPECT_NE(json.str().find("\"round\":20"), std::string::npos);
  EXPECT_NE(json.str().find("final-round-marker"), std::string::npos);
  std::ostringstream csv;
  series.write_annotations_csv(csv);
  EXPECT_NE(csv.str().find("20,final-round-marker"), std::string::npos);
}

TEST(RoundTimeSeries, AnnotationLabelsEscapeInCsvAndJson) {
  obs::RoundTimeSeries series(1);
  series.annotate(3, "say \"hi\", now");
  series.annotate(4, "multi\nline");
  std::ostringstream csv;
  series.write_annotations_csv(csv);
  // RFC 4180: quote-wrap fields containing commas/quotes/newlines and
  // double embedded quotes.
  EXPECT_NE(csv.str().find("3,\"say \"\"hi\"\", now\""), std::string::npos)
      << csv.str();
  EXPECT_NE(csv.str().find("4,\"multi\nline\""), std::string::npos);
  std::ostringstream json;
  series.write_annotations_json(json);
  EXPECT_NE(json.str().find("say \\\"hi\\\", now"), std::string::npos)
      << json.str();
}

}  // namespace
}  // namespace gossip
