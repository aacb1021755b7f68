// Deterministic fault plane: scenario parsing, per-kind phase semantics,
// and the determinism contract (attached-but-idle is bit-identical to no
// plane at all; active schedules are bit-identical run to run, including
// multithreaded). Carries the `tsan` label with the sharded driver.
#include "sim/fault_plane.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/flat_send_forget.hpp"
#include "core/packed_view.hpp"
#include "core/send_forget.hpp"
#include "graph/graph_gen.hpp"
#include "obs/oracle/flight_recorder.hpp"
#include "sim/loss.hpp"
#include "sim/network.hpp"
#include "sim/round_driver.hpp"
#include "sim/sharded_driver.hpp"

namespace gossip::sim {
namespace {

ScenarioFile parse_ok(const std::string& text) {
  std::istringstream in(text);
  ScenarioFile file;
  std::string error;
  EXPECT_TRUE(parse_scenario(in, &file, &error)) << error;
  return file;
}

std::string parse_error(const std::string& text) {
  std::istringstream in(text);
  ScenarioFile file;
  std::string error;
  EXPECT_FALSE(parse_scenario(in, &file, &error)) << "expected a parse error";
  return error;
}

// ---------------------------------------------------------------------------
// Scenario parsing.
// ---------------------------------------------------------------------------

TEST(ScenarioParse, FullGrammar) {
  const ScenarioFile file = parse_ok(
      "# comment line\n"
      "nodes 4000   # trailing comment\n"
      "regions 4\n"
      "\n"
      "phase partition 150 170 a=0-1999 b=2000-3999 mode=asymmetric "
      "label=split\n"
      "phase blackout 200 220 region=2 label=dc2\n"
      "phase loss_spike 240 260 rate=0.2 region=1\n"
      "phase burst 280 320 region=3 rate=0.3 burst_len=8 label=wifi\n"
      "phase degrade 340 360 shard=1 rate=0.5\n");
  ASSERT_EQ(file.config.size(), 1u);
  EXPECT_EQ(file.config[0].key, "nodes");
  EXPECT_EQ(file.config[0].value, "4000");
  EXPECT_EQ(file.config[0].line, 2u);
  EXPECT_EQ(file.schedule.regions, 4u);
  ASSERT_EQ(file.schedule.phases.size(), 5u);

  const FaultPhase& cut = file.schedule.phases[0];
  EXPECT_EQ(cut.kind, FaultKind::kPartition);
  EXPECT_EQ(cut.begin, 150u);
  EXPECT_EQ(cut.end, 170u);
  EXPECT_EQ(cut.a_lo, 0u);
  EXPECT_EQ(cut.a_hi, 1999u);
  EXPECT_EQ(cut.b_lo, 2000u);
  EXPECT_EQ(cut.b_hi, 3999u);
  EXPECT_FALSE(cut.symmetric);
  EXPECT_EQ(cut.label, "split");

  EXPECT_EQ(file.schedule.phases[1].kind, FaultKind::kBlackout);
  EXPECT_EQ(file.schedule.phases[1].region, 2u);

  const FaultPhase& spike = file.schedule.phases[2];
  EXPECT_EQ(spike.kind, FaultKind::kLossSpike);
  EXPECT_DOUBLE_EQ(spike.rate, 0.2);
  EXPECT_TRUE(spike.region_scoped);
  EXPECT_EQ(spike.region, 1u);
  // Unlabeled phases get "<kind>@<begin>".
  EXPECT_EQ(spike.label, "loss_spike@240");

  const FaultPhase& burst = file.schedule.phases[3];
  EXPECT_EQ(burst.kind, FaultKind::kBurst);
  EXPECT_DOUBLE_EQ(burst.rate, 0.3);
  EXPECT_DOUBLE_EQ(burst.burst_len, 8.0);

  EXPECT_EQ(file.schedule.phases[4].kind, FaultKind::kDegradeShard);
  EXPECT_EQ(file.schedule.phases[4].shard, 1u);

  EXPECT_EQ(file.schedule.first_begin(), 150u);
  EXPECT_EQ(file.schedule.last_end(), 360u);
}

TEST(ScenarioParse, SingleIdRangeAndSymmetricDefault) {
  const ScenarioFile file = parse_ok("phase partition 5 9 a=3 b=7-9\n");
  const FaultPhase& cut = file.schedule.phases.at(0);
  EXPECT_EQ(cut.a_lo, 3u);
  EXPECT_EQ(cut.a_hi, 3u);
  EXPECT_TRUE(cut.symmetric);
}

TEST(ScenarioParse, ErrorsCarryLineNumbers) {
  EXPECT_NE(parse_error("phase partition 10\n").find("(line 1)"),
            std::string::npos);
  EXPECT_NE(parse_error("nodes 100\nphase warp 1 2\n").find("(line 2)"),
            std::string::npos);
}

TEST(ScenarioParse, RejectsMalformedInput) {
  EXPECT_NE(parse_error("phase loss_spike 20 10 rate=0.1\n")
                .find("end must be > begin"),
            std::string::npos);
  EXPECT_NE(parse_error("phase partition 1 2 a=0-9\n").find("partition needs"),
            std::string::npos);
  EXPECT_NE(parse_error("phase partition 1 2 a=9-0 b=1-2\n")
                .find("bad id range"),
            std::string::npos);
  EXPECT_NE(parse_error("phase partition 1 2 a=0-1 b=2-3 mode=oneway\n")
                .find("symmetric|asymmetric"),
            std::string::npos);
  EXPECT_NE(parse_error("phase blackout 1 2\n").find("needs region"),
            std::string::npos);
  EXPECT_NE(parse_error("phase burst 1 2 region=0 rate=0.3 len=8\n")
                .find("unknown phase option"),
            std::string::npos);
  EXPECT_NE(parse_error("phase burst 1 2 region=0 rate\n")
                .find("not key=value"),
            std::string::npos);
  EXPECT_NE(parse_error("regions 0\n").find("positive count"),
            std::string::npos);
  EXPECT_NE(parse_error("nodes\n").find("needs a value"), std::string::npos);
}

// std::stod reads "nan" and "inf", and a NaN fails every ordered range
// check, so a non-finite rate used to run as an inert phase. An id above
// PackedViewEntry::kMaxId used to be narrowed to 32 bits, which wrapped
// b=4294968296-4294969295 onto 1000-1999. Trailing text after a number
// ("0.5garbage", "100-199-5000") used to be dropped silently.
TEST(ScenarioParse, RejectsNonFiniteValuesAndOversizedIds) {
  for (const char* text :
       {"phase loss_spike 10 40 rate=nan\n",
        "phase loss_spike 10 40 rate=-nan\n",
        "phase loss_spike 10 40 rate=inf\n",
        "phase degrade 10 40 shard=0 rate=NAN\n",
        "phase burst 10 40 region=0 rate=0.3 burst_len=nan\n",
        "phase burst 10 40 region=0 rate=0.3 burst_len=inf\n",
        "phase loss_spike 10 40 rate=0.5garbage\n",
        "phase loss_spike 10 40 region=1x rate=0.5\n",
        "phase degrade 10 40 shard=0.5 rate=0.5\n"}) {
    SCOPED_TRACE(text);
    EXPECT_NE(parse_error(text).find("bad value"), std::string::npos);
  }
  EXPECT_NE(parse_error("phase partition 10 40 a=0-999 "
                        "b=4294968296-4294969295\n")
                .find("bad id range"),
            std::string::npos);
  for (const char* range : {"b=2147483647", "b=100-199-5000", "b=1e3"}) {
    SCOPED_TRACE(range);
    EXPECT_NE(parse_error(std::string("phase partition 10 40 a=0-99 ") +
                          range + "\n")
                  .find("bad id range"),
              std::string::npos);
  }
  const ScenarioFile max =
      parse_ok("phase partition 10 40 a=0 b=2147483646\n");
  EXPECT_EQ(max.schedule.phases.at(0).b_hi, PackedViewEntry::kMaxId);
}

// A schedule built in code skips the parser; the plane's own range checks
// must still refuse NaN.
TEST(FaultPlaneCtor, RejectsNaNRates) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto phase = [](FaultKind kind, double rate, double burst_len) {
    FaultPhase ph;
    ph.kind = kind;
    ph.begin = 10;
    ph.end = 40;
    ph.rate = rate;
    ph.burst_len = burst_len;
    FaultSchedule schedule;
    schedule.phases.push_back(ph);
    return schedule;
  };
  EXPECT_THROW(FaultPlane(phase(FaultKind::kLossSpike, nan, 8.0), 50),
               std::invalid_argument);
  EXPECT_THROW(FaultPlane(phase(FaultKind::kDegradeShard, nan, 8.0), 50),
               std::invalid_argument);
  EXPECT_THROW(FaultPlane(phase(FaultKind::kBurst, nan, 8.0), 50),
               std::invalid_argument);
  EXPECT_THROW(FaultPlane(phase(FaultKind::kBurst, 0.3, nan), 50),
               std::invalid_argument);
  EXPECT_NO_THROW(FaultPlane(phase(FaultKind::kBurst, 0.3, 8.0), 50));
}

TEST(FaultPlaneCtor, ValidatesPhaseParameters) {
  const auto plane_with = [](const std::string& text, std::size_t n,
                             std::size_t shards) {
    std::istringstream in(text);
    ScenarioFile file;
    std::string error;
    ASSERT_TRUE(parse_scenario(in, &file, &error)) << error;
    FaultPlane plane(file.schedule, n, shards);
  };
  EXPECT_THROW(plane_with("phase partition 1 2 a=0-1 b=2-100\n", 50, 1),
               std::invalid_argument);
  EXPECT_THROW(plane_with("regions 2\nphase blackout 1 2 region=2\n", 50, 1),
               std::invalid_argument);
  EXPECT_THROW(plane_with("phase loss_spike 1 2 rate=1.5\n", 50, 1),
               std::invalid_argument);
  EXPECT_THROW(plane_with("phase burst 1 2 region=0 rate=0.0\n", 50, 1),
               std::invalid_argument);
  EXPECT_THROW(plane_with("phase burst 1 2 region=0 rate=0.3 burst_len=0.5\n",
                          50, 1),
               std::invalid_argument);
  EXPECT_THROW(plane_with("phase degrade 1 2 shard=4 rate=0.5\n", 50, 4),
               std::invalid_argument);
  EXPECT_THROW(plane_with("regions 100\nphase blackout 1 2 region=0\n", 50, 1),
               std::invalid_argument);
}

// A schedule built in code skips the parser's end > begin check; the
// plane enforces it itself, so an inverted or empty window cannot inject
// nothing silently.
TEST(FaultPlaneCtor, RejectsInvertedAndEmptyWindows) {
  for (const std::uint64_t end : {100u, 200u}) {
    SCOPED_TRACE(testing::Message() << "window [200, " << end << ")");
    FaultSchedule schedule;
    FaultPhase spike;
    spike.kind = FaultKind::kLossSpike;
    spike.begin = 200;
    spike.end = end;
    spike.rate = 0.12;
    schedule.phases.push_back(spike);
    EXPECT_THROW(FaultPlane(schedule, 50), std::invalid_argument);
  }
  FaultSchedule ok;
  FaultPhase spike;
  spike.begin = 200;
  spike.end = 201;
  spike.rate = 0.12;
  ok.phases.push_back(spike);
  EXPECT_NO_THROW(FaultPlane(ok, 50));
}

// ---------------------------------------------------------------------------
// Per-kind drop semantics (plane probed directly).
// ---------------------------------------------------------------------------

FaultPlane make_plane(const std::string& text, std::size_t n,
                      std::size_t shards = 1) {
  std::istringstream in(text);
  ScenarioFile file;
  std::string error;
  EXPECT_TRUE(parse_scenario(in, &file, &error)) << error;
  return FaultPlane(file.schedule, n, shards);
}

TEST(FaultPlaneDrop, SymmetricPartitionCutsBothDirections) {
  const FaultPlane plane =
      make_plane("phase partition 10 20 a=0-4 b=5-9\n", 10);
  FaultPlane::Context ctx = plane.make_context();
  Rng rng(1);
  // Structural rule: deterministic, no RNG involved.
  EXPECT_TRUE(plane.drop(2, 7, 10, rng, ctx));   // A -> B
  EXPECT_TRUE(plane.drop(7, 2, 15, rng, ctx));   // B -> A
  EXPECT_FALSE(plane.drop(2, 3, 15, rng, ctx));  // inside A
  EXPECT_FALSE(plane.drop(7, 8, 15, rng, ctx));  // inside B
  EXPECT_FALSE(plane.drop(2, 7, 9, rng, ctx));   // before the window
  EXPECT_FALSE(plane.drop(2, 7, 20, rng, ctx));  // end is the healed round
}

TEST(FaultPlaneDrop, AsymmetricPartitionCutsOnlyAToB) {
  const FaultPlane plane =
      make_plane("phase partition 10 20 a=0-4 b=5-9 mode=asymmetric\n", 10);
  FaultPlane::Context ctx = plane.make_context();
  Rng rng(1);
  EXPECT_TRUE(plane.drop(0, 9, 12, rng, ctx));
  EXPECT_FALSE(plane.drop(9, 0, 12, rng, ctx));
}

TEST(FaultPlaneDrop, BlackoutIsolatesRegionBothWays) {
  // 10 nodes, 2 regions: region 0 = ids 0-4, region 1 = ids 5-9.
  const FaultPlane plane =
      make_plane("regions 2\nphase blackout 5 6 region=1\n", 10);
  EXPECT_EQ(plane.region_of(4), 0u);
  EXPECT_EQ(plane.region_of(5), 1u);
  FaultPlane::Context ctx = plane.make_context();
  Rng rng(1);
  EXPECT_TRUE(plane.drop(6, 1, 5, rng, ctx));   // out of the dark region
  EXPECT_TRUE(plane.drop(1, 6, 5, rng, ctx));   // into the dark region
  EXPECT_FALSE(plane.drop(1, 2, 5, rng, ctx));  // unaffected pair
}

TEST(FaultPlaneDrop, LossSpikeScopesToSenderRegion) {
  const FaultPlane plane = make_plane(
      "regions 2\nphase loss_spike 0 1 rate=1.0 region=0\n", 10);
  FaultPlane::Context ctx = plane.make_context();
  Rng rng(1);
  EXPECT_TRUE(plane.drop(0, 9, 0, rng, ctx));   // sender in region 0
  EXPECT_FALSE(plane.drop(9, 0, 0, rng, ctx));  // sender in region 1
}

TEST(FaultPlaneDrop, DegradeShardScopesToSenderShard) {
  // 10 nodes over 2 shards => nodes_per_shard = 5; shard 1 = ids 5-9.
  const FaultPlane plane =
      make_plane("phase degrade 0 1 shard=1 rate=1.0\n", 10, 2);
  FaultPlane::Context ctx = plane.make_context();
  Rng rng(1);
  EXPECT_TRUE(plane.drop(5, 0, 0, rng, ctx));
  EXPECT_FALSE(plane.drop(4, 9, 0, rng, ctx));
}

TEST(FaultPlaneDrop, IdleRoundsConsumeNoRng) {
  const FaultPlane plane =
      make_plane("phase loss_spike 100 200 rate=0.5\n", 10);
  FaultPlane::Context ctx = plane.make_context();
  Rng probed(42);
  const Rng untouched = probed;  // value copy of the full generator state
  FaultPlane::Context ctx2 = plane.make_context();
  EXPECT_FALSE(plane.drop(0, 1, 50, probed, ctx));   // before first_begin
  EXPECT_FALSE(plane.drop(0, 1, 200, probed, ctx2));  // past last_end
  Rng reference = untouched;
  EXPECT_EQ(probed(), reference());  // identical next draw => no draw consumed
}

TEST(FaultPlaneDrop, StructuralPhasesConsumeNoRngWhileActive) {
  const FaultPlane plane =
      make_plane("phase partition 10 20 a=0-4 b=5-9\n", 10);
  FaultPlane::Context ctx = plane.make_context();
  Rng probed(42);
  const Rng untouched = probed;
  EXPECT_TRUE(plane.drop(0, 9, 15, probed, ctx));
  EXPECT_FALSE(plane.drop(0, 1, 15, probed, ctx));
  Rng reference = untouched;
  EXPECT_EQ(probed(), reference());
}

TEST(FaultPlaneDrop, BurstMatchesTargetRateEmpirically) {
  // One long burst phase; messages all come from the (single) region, so
  // the context's Gilbert-Elliott chain advances once per message and the
  // empirical drop rate must approach the declared average.
  const FaultPlane plane = make_plane(
      "phase burst 0 1000000 region=0 rate=0.3 burst_len=8\n", 10);
  FaultPlane::Context ctx = plane.make_context();
  Rng rng(7);
  const int trials = 200'000;
  int dropped = 0;
  for (int i = 0; i < trials; ++i) {
    if (plane.drop(0, 1, 5, rng, ctx)) ++dropped;
  }
  const double rate = static_cast<double>(dropped) / trials;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(FaultPlaneDrop, BurstChainRestartsGoodOnReactivation) {
  // Drive the chain BAD inside the first window, step outside it, and
  // re-enter: the context must have reset the chain to GOOD.
  const FaultPlane plane = make_plane(
      "phase burst 0 10 region=0 rate=0.9 burst_len=1000\n"
      "phase burst 20 30 region=0 rate=0.9 burst_len=1000\n", 10);
  FaultPlane::Context ctx = plane.make_context();
  Rng rng(7);
  bool went_bad = false;
  for (int i = 0; i < 200; ++i) {
    if (plane.drop(0, 1, 5, rng, ctx)) went_bad = true;
  }
  ASSERT_TRUE(went_bad);  // p = r*0.9/0.1 = 9r; BAD within 200 draws w.h.p.
  EXPECT_FALSE(plane.drop(0, 1, 15, rng, ctx));  // gap round: no phase active
  // First draw back inside a window starts from GOOD: the only way to drop
  // immediately is a fresh GOOD->BAD transition with p = 0.009, so 200
  // independent first-draws can't all drop (they would under a stuck-BAD
  // chain, which drops ~999/1000 draws).
  int first_drops = 0;
  for (int i = 0; i < 200; ++i) {
    FaultPlane::Context fresh = plane.make_context();
    // Re-poison: activate, go BAD, deactivate, re-enter.
    for (int j = 0; j < 200; ++j) plane.drop(0, 1, 25, rng, fresh);
    plane.drop(0, 1, 15, rng, fresh);  // deactivation resets the chain
    if (plane.drop(0, 1, 25, rng, fresh)) ++first_drops;
  }
  EXPECT_LT(first_drops, 50);
}

// ---------------------------------------------------------------------------
// Driver integration: determinism, counters, fates, conservation.
// ---------------------------------------------------------------------------

void install_regular_topology(FlatSendForgetCluster& cluster, std::size_t k,
                              std::uint64_t graph_seed) {
  Rng rng(graph_seed);
  cluster.install_graph(permutation_regular(cluster.size(), k, rng));
}

FaultSchedule busy_schedule(std::size_t n) {
  FaultSchedule schedule;
  schedule.regions = 4;
  FaultPhase cut;
  cut.kind = FaultKind::kPartition;
  cut.begin = 20;
  cut.end = 30;
  cut.a_lo = 0;
  cut.a_hi = static_cast<NodeId>(n / 2 - 1);
  cut.b_lo = static_cast<NodeId>(n / 2);
  cut.b_hi = static_cast<NodeId>(n - 1);
  cut.label = "cut";
  schedule.phases.push_back(cut);
  FaultPhase spike;
  spike.kind = FaultKind::kLossSpike;
  spike.begin = 25;
  spike.end = 45;
  spike.rate = 0.2;
  spike.label = "spike";
  schedule.phases.push_back(spike);
  FaultPhase burst;
  burst.kind = FaultKind::kBurst;
  burst.begin = 40;
  burst.end = 60;
  burst.region = 2;
  burst.rate = 0.4;
  burst.burst_len = 6.0;
  burst.label = "burst";
  schedule.phases.push_back(burst);
  return schedule;
}

std::uint64_t sharded_fingerprint(std::size_t n, std::size_t shards,
                                  std::uint64_t seed, const FaultPlane* plane,
                                  NetworkMetrics* metrics_out = nullptr) {
  FlatSendForgetCluster cluster(n, default_send_forget_config());
  install_regular_topology(cluster, 18, 21);
  ShardedDriver driver(cluster,
                       ShardedDriverConfig{.shard_count = shards,
                                           .loss_rate = 0.02,
                                           .seed = seed});
  if (plane != nullptr) driver.attach_fault_plane(plane);
  driver.run_rounds(80);
  if (metrics_out != nullptr) *metrics_out = driver.network_metrics();
  return cluster.fingerprint() ^ (driver.actions_executed() * 0x9E37ULL) ^
         driver.network_metrics().delivered;
}

TEST(FaultPlaneSharded, AttachedButIdlePlaneIsBitIdenticalToNone) {
  // A schedule whose first phase begins after the run ends must not
  // perturb a single RNG draw: identical fingerprint with and without the
  // plane attached.
  FaultSchedule late;
  FaultPhase spike;
  spike.kind = FaultKind::kLossSpike;
  spike.begin = 1000;  // run is 80 rounds
  spike.end = 1100;
  spike.rate = 0.5;
  late.phases.push_back(spike);
  const FaultPlane plane(late, 4096, 4);
  NetworkMetrics with_plane;
  const std::uint64_t a = sharded_fingerprint(4096, 4, 9, nullptr);
  const std::uint64_t b = sharded_fingerprint(4096, 4, 9, &plane, &with_plane);
  EXPECT_EQ(a, b);
  EXPECT_EQ(with_plane.faulted, 0u);
}

TEST(FaultPlaneSharded, ActiveScheduleIsDeterministicAcrossRuns) {
  const FaultPlane plane(busy_schedule(4096), 4096, 4);
  NetworkMetrics m1;
  NetworkMetrics m2;
  const std::uint64_t a = sharded_fingerprint(4096, 4, 9, &plane, &m1);
  const std::uint64_t b = sharded_fingerprint(4096, 4, 9, &plane, &m2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(m1.faulted, m2.faulted);
  EXPECT_GT(m1.faulted, 0u);
  // And a different seed diverges (guards a degenerate fingerprint).
  EXPECT_NE(a, sharded_fingerprint(4096, 4, 10, &plane));
}

TEST(FaultPlaneSharded, FaultedCountsSeparateFromAmbientLoss) {
  const FaultPlane plane(busy_schedule(4096), 4096, 4);
  NetworkMetrics m;
  sharded_fingerprint(4096, 4, 9, &plane, &m);
  // Conservation: every sent message has exactly one fate.
  EXPECT_EQ(m.sent, m.delivered + m.lost + m.to_dead + m.faulted);
  EXPECT_GT(m.faulted, 0u);
  EXPECT_GT(m.lost, 0u);
}

TEST(FaultPlaneSharded, RejectsPlaneBuiltForDifferentClusterSize) {
  FlatSendForgetCluster cluster(100, default_send_forget_config());
  ShardedDriver driver(cluster, ShardedDriverConfig{.shard_count = 2});
  const FaultPlane plane(busy_schedule(4096), 4096, 4);
  EXPECT_THROW(driver.attach_fault_plane(&plane), std::invalid_argument);
}

TEST(FaultPlaneSharded, FaultDropsRecordedWithDistinctFate) {
  FlatSendForgetCluster cluster(1024, default_send_forget_config());
  install_regular_topology(cluster, 18, 21);
  ShardedDriver driver(cluster, ShardedDriverConfig{.shard_count = 2,
                                                    .loss_rate = 0.02,
                                                    .seed = 3});
  FaultSchedule schedule;
  FaultPhase spike;
  spike.kind = FaultKind::kLossSpike;
  spike.begin = 10;
  spike.end = 40;
  spike.rate = 0.3;
  schedule.phases.push_back(spike);
  const FaultPlane plane(schedule, 1024, 2);
  obs::FlightRecorder recorder(2, 1u << 16);
  driver.attach_fault_plane(&plane);
  driver.attach_flight_recorder(&recorder);
  driver.run_rounds(50);
  std::uint64_t fault_fates = 0;
  for (std::size_t s = 0; s < 2; ++s) {
    for (const obs::FlightEvent& e : recorder.shard_events(s)) {
      if (e.kind == obs::FlightEventKind::kFaultDrop) ++fault_fates;
    }
  }
  EXPECT_GT(fault_fates, 0u);
  // The ring holds the tail of the run; the *counter* holds the truth.
  EXPECT_GT(driver.network_metrics().faulted, 0u);
}

TEST(FaultPlaneSharded, LossModelFactoryMatchesScalarFastPath) {
  // A per-shard UniformLoss(p) draws exactly like the scalar loss_rate
  // fast path, so the two configurations must be bit-identical.
  const auto run = [](bool use_factory) {
    FlatSendForgetCluster cluster(2048, default_send_forget_config());
    install_regular_topology(cluster, 18, 21);
    ShardedDriverConfig config{.shard_count = 4, .loss_rate = 0.05,
                               .seed = 11};
    if (use_factory) {
      config.loss_rate = 0.0;
      config.loss_model = [](std::size_t) {
        return std::make_unique<UniformLoss>(0.05);
      };
    }
    ShardedDriver driver(cluster, config);
    driver.run_rounds(60);
    return cluster.fingerprint() ^ driver.network_metrics().lost;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(FaultPlaneSharded, BurstyLossModelFactoryIsDeterministic) {
  const auto run = [] {
    FlatSendForgetCluster cluster(2048, default_send_forget_config());
    install_regular_topology(cluster, 18, 21);
    ShardedDriverConfig config{.shard_count = 4, .seed = 11};
    config.loss_model = [](std::size_t) { return bursty_loss(0.05, 8.0); };
    ShardedDriver driver(cluster, config);
    driver.run_rounds(60);
    return cluster.fingerprint() ^ driver.network_metrics().lost;
  };
  EXPECT_EQ(run(), run());
}

// The serial drivers share the same hook; spot-check RoundDriver sees
// faults and keeps them out of `lost`.
TEST(FaultPlaneRoundDriver, InjectsAndCountsFaults) {
  const std::size_t n = 512;
  Rng rng(5);
  const auto factory = [](NodeId id) {
    return std::make_unique<SendForget>(id, default_send_forget_config());
  };
  Cluster cluster(n, factory);
  cluster.install_graph(permutation_regular(n, 18, rng));
  UniformLoss loss(0.0);
  RoundDriver driver(cluster, loss, rng);
  FaultSchedule schedule;
  FaultPhase spike;
  spike.kind = FaultKind::kLossSpike;
  spike.begin = 0;
  spike.end = 20;
  spike.rate = 0.5;
  schedule.phases.push_back(spike);
  const FaultPlane plane(schedule, n, 1);
  driver.attach_fault_plane(&plane);
  driver.run_rounds(20);
  const NetworkMetrics& m = driver.network_metrics();
  EXPECT_GT(m.faulted, 0u);
  EXPECT_EQ(m.lost, 0u);  // ambient loss is off; every drop is injected
  EXPECT_EQ(m.sent, m.delivered + m.lost + m.to_dead + m.faulted);
}

}  // namespace
}  // namespace gossip::sim
