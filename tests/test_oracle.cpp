// TheoryOracle + DriftMonitor: the prediction bridge from the analysis
// solvers, the WARN/VIOLATION hysteresis, each check's synthetic trip
// wiring, and the end-to-end contracts — a correctly parameterized run
// stays quiet, a mis-parameterized run (simulated ℓ ≠ predicted ℓ) trips
// the monitor and dumps the armed flight recorder, and attaching the
// oracle never perturbs the simulation (bit-identical fingerprints).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/prediction.hpp"
#include "core/flat_send_forget.hpp"
#include "core/send_forget.hpp"
#include "graph/graph_gen.hpp"
#include "obs/oracle/drift_monitor.hpp"
#include "obs/oracle/flight_recorder.hpp"
#include "obs/oracle/theory_oracle.hpp"
#include "obs/timeseries.hpp"
#include "sim/sharded_driver.hpp"

namespace gossip {
namespace {

using obs::DriftCheck;
using obs::DriftMonitor;
using obs::DriftMonitorConfig;
using obs::DriftState;

obs::TheoryPrediction prediction_at(double loss) {
  const SendForgetConfig cfg = default_send_forget_config();
  analysis::DegreeMcParams params;
  params.view_size = cfg.view_size;
  params.min_degree = cfg.min_degree;
  params.loss = loss;
  return analysis::make_theory_prediction(params);
}

// ---------------------------------------------------------------------------
// analysis::make_theory_prediction — the §6.2/§7 bridge.
// ---------------------------------------------------------------------------

TEST(TheoryPrediction, BridgePackagesPaperPredictions) {
  const obs::TheoryPrediction pred = prediction_at(0.02);
  const SendForgetConfig cfg = default_send_forget_config();
  ASSERT_TRUE(pred.valid());
  EXPECT_DOUBLE_EQ(pred.loss, 0.02);
  EXPECT_EQ(pred.view_size, cfg.view_size);
  EXPECT_EQ(pred.min_degree, cfg.min_degree);

  const double out_mass =
      std::accumulate(pred.out_pmf.begin(), pred.out_pmf.end(), 0.0);
  const double in_mass =
      std::accumulate(pred.in_pmf.begin(), pred.in_pmf.end(), 0.0);
  EXPECT_NEAR(out_mass, 1.0, 1e-9);
  EXPECT_NEAR(in_mass, 1.0, 1e-9);

  // Obs 5.1: outdegree lives in [dL, s].
  EXPECT_GE(pred.expected_out, static_cast<double>(cfg.min_degree));
  EXPECT_LE(pred.expected_out, static_cast<double>(cfg.view_size));
  for (std::size_t d = 0; d < cfg.min_degree && d < pred.out_pmf.size(); ++d) {
    EXPECT_NEAR(pred.out_pmf[d], 0.0, 1e-12) << "mass below dL at " << d;
  }

  // Lemma 6.7: dup probability in [ℓ, ℓ+δ]; Lemma 6.6: dup = ℓ + del.
  EXPECT_GE(pred.duplication_probability, pred.loss);
  EXPECT_LE(pred.duplication_probability, pred.loss + pred.delta);
  EXPECT_NEAR(pred.duplication_probability,
              pred.loss + pred.deletion_probability, 1e-3);

  // Lemma 7.9: α ≥ 1 − 2(ℓ+δ).
  EXPECT_DOUBLE_EQ(pred.alpha_lower_bound,
                   1.0 - 2.0 * (pred.loss + pred.delta));
}

// The cold points the CLI solves: chaos/simulate --retune/top around the
// paper box, the retune pin's installed dL=22 at ℓ̂≈0.128, and a wide view
// (`sfgossip top --view-size 80 --min-degree 38`). Each solve must land
// in the Lemma 6.7 band.
struct ColdPoint {
  std::size_t view_size;
  std::size_t min_degree;
  double loss;
};

void PrintTo(const ColdPoint& p, std::ostream* os) {
  *os << "s=" << p.view_size << " dL=" << p.min_degree << " loss=" << p.loss;
}

class TheoryPredictionColdPoint : public testing::TestWithParam<ColdPoint> {};

TEST_P(TheoryPredictionColdPoint, DuplicationInLemma67Band) {
  const ColdPoint point = GetParam();
  analysis::clear_prediction_cache();
  analysis::DegreeMcParams params;
  params.view_size = point.view_size;
  params.min_degree = point.min_degree;
  params.loss = point.loss;
  const obs::TheoryPrediction pred = analysis::make_theory_prediction(params);
  ASSERT_TRUE(pred.valid());
  EXPECT_NEAR(std::accumulate(pred.out_pmf.begin(), pred.out_pmf.end(), 0.0),
              1.0, 1e-9);
  EXPECT_GE(pred.expected_out, static_cast<double>(point.min_degree));
  EXPECT_GE(pred.duplication_probability, point.loss);
  EXPECT_LE(pred.duplication_probability, point.loss + pred.delta);
}

INSTANTIATE_TEST_SUITE_P(
    CliPoints, TheoryPredictionColdPoint,
    testing::Values(ColdPoint{40, 18, 0.005}, ColdPoint{40, 18, 0.01},
                    ColdPoint{40, 18, 0.02}, ColdPoint{40, 22, 0.128},
                    ColdPoint{80, 38, 0.01}),
    [](const testing::TestParamInfo<ColdPoint>& info) {
      const ColdPoint& p = info.param;
      std::string loss = std::to_string(p.loss);  // "0.005000"
      loss.erase(loss.find_last_not_of('0') + 1);
      loss[1] = 'p';
      return "s" + std::to_string(p.view_size) + "_dL" +
             std::to_string(p.min_degree) + "_loss" + loss;
    });

// One outer iteration cannot reach the fixed point: the bridge must refuse
// the answer, name the point, and cache nothing, so that a later solve of
// the same point with the default cap is not served the unconverged one.
TEST(TheoryPrediction, UnconvergedSolveThrowsAndIsNotCached) {
  analysis::clear_prediction_cache();
  analysis::DegreeMcParams params;
  params.view_size = 40;
  params.min_degree = 18;
  params.loss = 0.01;
  params.max_fixed_point_iterations = 1;
  try {
    (void)analysis::make_theory_prediction(params);
    FAIL() << "an unconverged solve was returned";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("s=40, dL=18, loss=0.01"), std::string::npos) << what;
  }
  EXPECT_EQ(analysis::prediction_cache_stats().size, 0u);

  params.max_fixed_point_iterations =
      analysis::DegreeMcParams{}.max_fixed_point_iterations;
  EXPECT_TRUE(analysis::make_theory_prediction(params).valid());
  EXPECT_EQ(analysis::prediction_cache_stats().size, 1u);
}

// ---------------------------------------------------------------------------
// DriftMonitor hysteresis.
// ---------------------------------------------------------------------------

void probe_with_score(DriftMonitor& monitor, std::uint64_t round,
                      double score) {
  monitor.begin_probe(round);
  monitor.record(DriftCheck::kIndependence, score);
  monitor.end_probe();
}

TEST(DriftMonitor, WarnsImmediatelyAboveTolerance) {
  DriftMonitor monitor;
  probe_with_score(monitor, 1, 0.8);
  EXPECT_EQ(monitor.state(DriftCheck::kIndependence), DriftState::kOk);
  probe_with_score(monitor, 2, 1.5);
  EXPECT_EQ(monitor.state(DriftCheck::kIndependence), DriftState::kWarn);
  EXPECT_EQ(monitor.warn_transitions(), 1u);
  EXPECT_EQ(monitor.violation_transitions(), 0u);
  EXPECT_DOUBLE_EQ(monitor.peak_score(DriftCheck::kIndependence), 1.5);
}

TEST(DriftMonitor, ViolationNeedsConsecutiveCandidates) {
  DriftMonitor monitor;  // violation_ratio 2.0, violation_streak 2
  probe_with_score(monitor, 1, 2.5);
  EXPECT_EQ(monitor.state(DriftCheck::kIndependence), DriftState::kWarn);
  // An in-tolerance probe breaks the candidate streak.
  probe_with_score(monitor, 2, 0.5);
  probe_with_score(monitor, 3, 2.5);
  EXPECT_EQ(monitor.violation_transitions(), 0u);
  probe_with_score(monitor, 4, 2.5);
  EXPECT_EQ(monitor.state(DriftCheck::kIndependence), DriftState::kViolation);
  EXPECT_EQ(monitor.violation_transitions(), 1u);
  EXPECT_EQ(monitor.overall_state(), DriftState::kViolation);
}

TEST(DriftMonitor, ClearsAfterOkStreakAndFiresCallback) {
  DriftMonitor monitor;  // clear_streak 3
  std::vector<obs::DriftTransition> fired;
  monitor.set_violation_callback(
      [&fired](const obs::DriftTransition& t) { fired.push_back(t); });
  probe_with_score(monitor, 1, 3.0);
  probe_with_score(monitor, 2, 3.0);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].check, DriftCheck::kIndependence);
  EXPECT_EQ(fired[0].to, DriftState::kViolation);
  EXPECT_EQ(fired[0].round, 2u);

  probe_with_score(monitor, 3, 0.5);
  probe_with_score(monitor, 4, 0.5);
  EXPECT_EQ(monitor.state(DriftCheck::kIndependence), DriftState::kViolation);
  probe_with_score(monitor, 5, 0.5);
  EXPECT_EQ(monitor.state(DriftCheck::kIndependence), DriftState::kOk);
  // Per-probe samples retained for the drift trajectory dump.
  EXPECT_EQ(monitor.samples().size(), 5u);
  EXPECT_EQ(fired.size(), 1u);
}

// ---------------------------------------------------------------------------
// Synthetic single-check trips (hand-built probes, warmup disabled).
// ---------------------------------------------------------------------------

// Prediction with no degree marginals: check_degree is skipped (valid()
// is false), so a synthetic probe exercises exactly one lane.
obs::TheoryPrediction rates_only_prediction() {
  obs::TheoryPrediction pred;
  pred.loss = 0.02;
  pred.delta = 0.01;
  pred.alpha_lower_bound = 0.94;
  return pred;
}

TEST(TheoryOracle, AlphaShortfallEscalatesToViolation) {
  obs::OracleConfig config;
  config.warmup_rounds = 0;
  obs::TheoryOracle oracle(rates_only_prediction(), config);

  obs::FlatClusterProbe probe;
  probe.occupied_slots = 1000;
  probe.dependent_entries = 150;  // α̂ = 0.85, shortfall 0.09 → score 4.5
  const obs::CumulativeCounters counters{};
  oracle.observe(1, probe, {}, counters);
  EXPECT_TRUE(oracle.last().alpha_checked);
  EXPECT_NEAR(oracle.last().alpha_hat, 0.85, 1e-12);
  EXPECT_EQ(oracle.monitor().state(DriftCheck::kIndependence),
            DriftState::kWarn);
  oracle.observe(2, probe, {}, counters);
  EXPECT_EQ(oracle.monitor().state(DriftCheck::kIndependence),
            DriftState::kViolation);
  EXPECT_EQ(oracle.monitor().violation_transitions(), 1u);
  // Nothing else tripped: no degree marginals, empty occurrence span,
  // and an empty rate window.
  EXPECT_FALSE(oracle.last().degree_checked);
  EXPECT_FALSE(oracle.last().uniformity_checked);
  EXPECT_FALSE(oracle.last().rates_checked);
  EXPECT_EQ(oracle.monitor().state(DriftCheck::kDuplicationRate),
            DriftState::kOk);
}

TEST(TheoryOracle, UniformityOutlierTripsAndDeadIdsAreExcluded) {
  obs::OracleConfig config;
  config.warmup_rounds = 0;
  config.min_probes_for_uniformity = 1;
  obs::TheoryOracle oracle(rates_only_prediction(), config);

  // 256 ids (the studentized max-z saturates near sqrt(m−1), so a small m
  // could never reach the violation ratio): one id hoards occurrences.
  constexpr std::size_t kIds = 256;
  std::vector<std::uint32_t> occurrences(kIds, 100);
  occurrences[0] = 4000;
  obs::FlatClusterProbe probe;
  probe.occupied_slots = 100;  // α̂ in tolerance (no dependent entries)
  const obs::CumulativeCounters counters{};

  oracle.observe(1, probe, occurrences, counters);
  ASSERT_TRUE(oracle.last().uniformity_checked);
  EXPECT_EQ(oracle.last().uniformity_ids, kIds);
  EXPECT_GT(oracle.last().uniformity_z,
            2.0 * oracle.last().uniformity_limit);
  EXPECT_EQ(oracle.monitor().state(DriftCheck::kUniformity),
            DriftState::kWarn);

  // A dead id mid-stream (churn) drops out of the stable-id set.
  occurrences[5] = obs::kDeadNodeOccurrence;
  oracle.observe(2, probe, occurrences, counters);
  EXPECT_EQ(oracle.last().uniformity_ids, kIds - 1);
  EXPECT_EQ(oracle.monitor().state(DriftCheck::kUniformity),
            DriftState::kViolation);
  EXPECT_EQ(oracle.monitor().state(DriftCheck::kIndependence),
            DriftState::kOk);
}

TEST(TheoryOracle, RateWindowOpensAtFirstPostWarmupProbe) {
  obs::OracleConfig config;
  config.warmup_rounds = 100;
  config.min_sent_for_rates = 1000;
  obs::TheoryOracle oracle(rates_only_prediction(), config);
  obs::FlatClusterProbe probe;
  probe.occupied_slots = 100;

  // Transient counters before and at the baseline probe never enter the
  // window — only post-baseline deltas are judged.
  obs::CumulativeCounters counters;
  counters.sent = 50'000;
  counters.duplications = 40'000;  // wildly off; must be ignored
  oracle.observe(100, probe, {}, counters);
  EXPECT_FALSE(oracle.last().rates_checked);

  counters.sent += 2000;
  counters.duplications += 50;  // window dup rate 0.025 ∈ [0.02, 0.03]
  counters.deletions += 10;     // window del rate 0.005, pred 0 → score 0.25
  oracle.observe(110, probe, {}, counters);
  ASSERT_TRUE(oracle.last().rates_checked);
  EXPECT_EQ(oracle.last().window_sent, 2000u);
  EXPECT_NEAR(oracle.last().duplication_rate, 0.025, 1e-12);
  EXPECT_EQ(oracle.monitor().state(DriftCheck::kDuplicationRate),
            DriftState::kOk);

  // A window breaching the Lemma 6.7 band warns.
  counters.sent += 2000;
  counters.duplications += 240;  // window rate climbs past ℓ+δ+tolerance
  oracle.observe(120, probe, {}, counters);
  EXPECT_EQ(oracle.monitor().state(DriftCheck::kDuplicationRate),
            DriftState::kWarn);
}

// ---------------------------------------------------------------------------
// End-to-end: sharded runs with the oracle riding along.
// ---------------------------------------------------------------------------

struct ChurnRunResult {
  std::uint64_t fingerprint = 0;
  double drift_violations_gauge = 0.0;
};

// The test_sharded_driver churn schedule (8 batches of 3 rounds with a
// kill/revive pair) followed by a quiet tail out to `rounds`.
ChurnRunResult churny_oracle_run(std::size_t n, std::size_t shards,
                                 double sim_loss, std::uint64_t rounds,
                                 std::uint64_t seed,
                                 obs::TheoryOracle* oracle,
                                 obs::FlightRecorder* recorder) {
  const SendForgetConfig cfg = default_send_forget_config();
  FlatSendForgetCluster cluster(n, cfg);
  Rng graph_rng(seed * 3 + 1);
  cluster.install_graph(permutation_regular(n, cfg.min_degree, graph_rng));

  sim::ShardedDriver driver(
      cluster, sim::ShardedDriverConfig{
                   .shard_count = shards, .loss_rate = sim_loss, .seed = seed});
  driver.set_observation_stride(10);
  driver.attach_oracle(oracle);
  driver.attach_flight_recorder(recorder);

  Rng churn_picks(seed ^ 0xABCD);
  std::uint64_t done = 0;
  std::vector<NodeId> dead;
  for (int batch = 0; batch < 8; ++batch) {
    driver.run_rounds(3);
    done += 3;
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
  if (rounds > done) driver.run_rounds(rounds - done);

  ChurnRunResult result;
  result.fingerprint = cluster.fingerprint() ^
                       (driver.actions_executed() * 0x9E37ULL) ^
                       driver.network_metrics().delivered;
  if (oracle != nullptr) {
    obs::MetricsRegistry& registry = driver.metrics_registry();
    result.drift_violations_gauge =
        registry.gauge_value(registry.gauge("drift_violations"));
  }
  return result;
}

TEST(TheoryOracleIntegration, CleanRunStaysInsideTolerances) {
  obs::TheoryOracle oracle(prediction_at(0.02));
  const ChurnRunResult run =
      churny_oracle_run(2000, 2, 0.02, 520, 99, &oracle, nullptr);
  EXPECT_EQ(oracle.monitor().violation_transitions(), 0u)
      << oracle.report();
  EXPECT_EQ(run.drift_violations_gauge, 0.0);
  EXPECT_GT(oracle.probes(), 0u);

  // The final quiescent probe exercised every lane.
  const obs::OracleSnapshot& last = oracle.last();
  EXPECT_TRUE(last.degree_checked);
  EXPECT_TRUE(last.rates_checked);
  EXPECT_TRUE(last.uniformity_checked);
  EXPECT_TRUE(last.alpha_checked);
  EXPECT_LT(last.tvd_out, last.tvd_out_limit);
  EXPECT_LT(last.tvd_in, last.tvd_in_limit);
  EXPECT_GE(last.window_sent, oracle.config().min_sent_for_rates);
}

TEST(TheoryOracleIntegration, MisparameterizedRunTripsAndDumpsRecorder) {
  // Predictions computed at ℓ=0.02; the run actually loses 10% — the
  // situation the oracle exists to catch.
  obs::TheoryOracle oracle(prediction_at(0.02));
  obs::FlightRecorder recorder(2);
  const std::string dump_path =
      ::testing::TempDir() + "oracle_misparam.trace";
  oracle.arm_flight_dump(&recorder, dump_path);

  churny_oracle_run(2000, 2, 0.10, 440, 7, &oracle, &recorder);
  EXPECT_GT(oracle.monitor().violation_transitions(), 0u)
      << oracle.report();
  EXPECT_EQ(oracle.monitor().overall_state(), DriftState::kViolation);
  ASSERT_TRUE(oracle.flight_dumped());

  obs::FlightTrace trace;
  ASSERT_TRUE(trace.load_file(dump_path));
  EXPECT_EQ(trace.shard_count(), 2u);
  EXPECT_GT(trace.events().size(), 0u);
}

TEST(TheoryOracleIntegration, ObservationNeverPerturbsTheRun) {
  const ChurnRunResult bare =
      churny_oracle_run(1024, 4, 0.05, 36, 55, nullptr, nullptr);
  obs::TheoryOracle oracle(prediction_at(0.05));
  obs::FlightRecorder recorder(4);
  oracle.arm_flight_dump(&recorder, ::testing::TempDir() + "unused.trace");
  const ChurnRunResult observed =
      churny_oracle_run(1024, 4, 0.05, 36, 55, &oracle, &recorder);
  EXPECT_EQ(bare.fingerprint, observed.fingerprint);
  EXPECT_GT(oracle.probes(), 0u);
}

}  // namespace
}  // namespace gossip
