// bench_report — benchmark-trajectory harness.
//
// Several modes, each emitting a machine-readable JSON baseline so every
// future PR has a perf trajectory to diff against:
//
//   ./bench_report [output.json]            # scale: BENCH_scale.json
//   ./bench_report --analysis [out.json]    # solvers: BENCH_analysis.json
//   ./bench_report --telemetry [out.json]   # obs: BENCH_telemetry.json
//   ./bench_report --drift [out.json]       # oracle: BENCH_drift.json
//   ./bench_report --chaos [out.json]       # faults: BENCH_chaos.json
//   ./bench_report --forensics [out.json]   # analyze: BENCH_forensics.json
//   ./bench_report --arena [out.json]       # detectors: BENCH_arena.json
//   ./bench_report [--mode] --quick         # reduced sizes, for smoke tests
//
// Every output carries a schema_version / tool / git header so baselines
// are traceable to the tree that produced them. Writing a BENCH_* baseline
// from a dirty tree is refused (the header would record "…-dirty", which
// tools/check_bench.py rejects); pass --allow-dirty to override for local
// experiments.
//
// Scale mode runs the simulation drivers (sequential RoundDriver vs the
// sharded flat driver at several n / thread counts) and records
// actions/sec and RSS; each sharded leg also prints the overlay's health
// on stdout (E22). Runs with more shards than hardware threads are
// flagged "oversubscribed": their speedups measure scheduling overlap,
// not parallel hardware, and must not be read as core-scaling numbers.
//
// Analysis mode benchmarks the §6/§7 solver stack: the §6.2 degree-MC
// ℓ-sweep solved twice — once with the seed-faithful baseline outer loop
// (damped fixed point, cold start per point) and once with the
// accelerated pipeline (Anderson outer + warm-started sweep), both on the
// direct banded inner solve — plus the exhaustive §7
// global MC build, the §7.5 mixing measurement, and the spectral-gap
// power iteration. Solutions of the two degree-MC configurations are
// cross-checked in-process (max mean-indegree difference is part of the
// report).
//
// Telemetry mode exercises the full observability stack on a sharded run
// (round time-series, invariant watchdog, per-phase profiler) plus an
// instrumented degree-MC + spectral solve, and dumps everything as JSON.
// Scale mode additionally re-runs the largest sharded configuration with
// observers attached and records the overhead as obs_overhead_pct, and the
// single-thread gate pair with the flight recorder attached
// (recorder_overhead_pct, gated < 2% like the registry).
//
// Drift mode runs the TheoryOracle against two sharded simulations: one
// correctly parameterized (predictions and simulation both at ℓ = 0.02 —
// must finish with zero drift violations) and one deliberately
// mis-parameterized (simulating ℓ = 0.10 against ℓ = 0.02 predictions —
// must escalate the DriftMonitor to VIOLATION and dump the armed flight
// recorder). Both outcomes are gates in BENCH_drift.json.
//
// Chaos mode drives the deterministic fault plane through four sharded
// legs and gates on the RecoveryTracker's measured time-to-recover: a
// symmetric 20-round partition that must heal within budget, a 20% mass
// kill that must recover within budget, a regional Gilbert-Elliott burst
// the overlay must ride out without ending degraded, and an *undeclared*
// loss spike under an attached TheoryOracle that must still trip the
// DriftMonitor (the fault plane must not blunt drift detection).
//
// Every flat-engine leg of every mode is a sim::RunSpec run by sim::FlatRun
// (src/sim/run.hpp), on the bench's seeds (graph and driver both 7 + n).
//
// Forensics mode runs three chaos legs with known injected causes, records
// the full artifact set in memory (flight dump, snapshot stream, chaos
// report), and gates the post-mortem engine: the RootCauseAttributor must
// pin every incident on the injected cause with zero unknowns, the JSON
// report must render bit-identically twice, and the analysis must fit a
// wall-clock budget.
//
// Arena mode runs the failure-detector competition (S&F washout vs SWIM vs
// all-to-all heartbeats) through the ArenaDriver across a protocol ×
// scenario × loss matrix, each leg twice back-to-back, and gates on SWIM's
// detection completeness / false-positive budget, S&F's recovery budgets
// (the same round counts BENCH_chaos.json commits), and per-leg
// fingerprint determinism.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/degree_mc.hpp"
#include "analysis/global_mc.hpp"
#include "analysis/mixing.hpp"
#include "analysis/prediction.hpp"
#include "core/baselines/all_to_all.hpp"
#include "core/baselines/swim.hpp"
#include "core/flat_send_forget.hpp"
#include "core/send_forget.hpp"
#include "graph/digraph.hpp"
#include "graph/graph_gen.hpp"
#include "graph/spectral.hpp"
#include "obs/detection.hpp"
#include "obs/export/snapshot.hpp"
#include "obs/forensics/attribution.hpp"
#include "obs/forensics/causal_index.hpp"
#include "obs/forensics/report.hpp"
#include "obs/forensics/run_archive.hpp"
#include "obs/oracle/flight_recorder.hpp"
#include "obs/oracle/theory_oracle.hpp"
#include "obs/probe.hpp"
#include "obs/recovery.hpp"
#include "obs/solver_telemetry.hpp"
#include "obs/timeseries.hpp"
#include "obs/watchdog.hpp"
#include "sim/arena_driver.hpp"
#include "sim/churn.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_plane.hpp"
#include "sim/retune.hpp"
#include "sim/round_driver.hpp"
#include "sim/run.hpp"

#ifndef GOSSIP_GIT_DESCRIBE
#define GOSSIP_GIT_DESCRIBE "unknown"
#endif

namespace {

using namespace gossip;
using Clock = std::chrono::steady_clock;

constexpr int kSchemaVersion = 2;

// Shared JSON header: identifies the schema, the tool, and the tree that
// produced the baseline. `benchmark` distinguishes the three modes.
void emit_header(std::ofstream& out, const char* benchmark) {
  out << "{\n";
  out << "  \"benchmark\": \"" << benchmark << "\",\n";
  out << "  \"schema_version\": " << kSchemaVersion << ",\n";
  out << "  \"tool\": \"bench_report\",\n";
  out << "  \"git\": \"" << GOSSIP_GIT_DESCRIBE << "\",\n";
  out << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n";
}

// Current resident set size in MiB, from /proc/self/status (0 elsewhere).
double rss_mib() {
#ifdef __linux__
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // value is in kB
    }
  }
#endif
  return 0.0;
}

struct BenchResult {
  std::string driver;
  std::size_t n = 0;
  std::size_t shards = 0;   // logical shards (determinism unit)
  std::size_t threads = 0;  // worker threads executing them
  std::size_t rounds = 0;
  std::uint64_t actions = 0;
  double seconds = 0.0;
  double actions_per_sec = 0.0;
  double rss_mb = 0.0;
  // RSS growth across cluster+driver construction and the run, per node.
  // The footprint gate for the 10M leg (<= 220 B/node in check_bench.py);
  // measured as a delta so earlier legs' allocator noise is excluded.
  double bytes_per_node = 0.0;
  // The overlay's health at the end of a sharded leg (stdout only).
  std::string health;
};

// A run on n nodes with the bench's seeds (graph and driver both 7 + n),
// ℓ = 0.02 and the paper's running example, s = 40, dL = 18.
sim::RunSpec bench_run(std::size_t n, std::size_t shards, std::size_t rounds) {
  sim::RunSpec spec;
  spec.nodes = n;
  spec.shards = shards;
  spec.rounds = rounds;
  spec.loss = 0.02;
  spec.seed = 7 + n;
  spec.graph_seed = 7 + n;
  return spec;
}

// One sharded scale leg: ~1 kill and ~1 revive per round, observed legs
// sampled every 10 rounds. Logical shards are the determinism unit
// (fingerprints depend on them); threads only decide how many workers
// execute the shard blocks. Running many shards on one thread is the
// packed engine's fast path: each shard's slab slice is small enough to
// stay cache-resident through its initiate/drain phases, and cross-shard
// traffic moves through the batch-frame mailboxes in destination-major
// runs.
sim::RunSpec scale_leg(std::size_t n, std::size_t shards, std::size_t threads,
                       std::size_t rounds) {
  sim::RunSpec spec = bench_run(n, shards, rounds);
  spec.threads = threads;
  spec.churn = true;
  spec.stride = 10;
  return spec;
}

BenchResult run_sequential(std::size_t n, std::size_t rounds) {
  Rng rng(7 + n);
  const auto factory = [](NodeId id) {
    return std::make_unique<SendForget>(id, default_send_forget_config());
  };
  sim::Cluster cluster(n, factory);
  // Seed at dL, the paper's join outdegree (§6.5): the overlay then starts
  // inside the Obs 5.1 envelope and reaches its steady state quickly.
  cluster.install_graph(
      permutation_regular(n, default_send_forget_config().min_degree, rng));
  sim::UniformLoss loss(0.02);
  sim::RoundDriver driver(cluster, loss, rng);
  sim::ChurnProcess churn(cluster, factory, 18, 1.0, 1.0, n / 2);

  const auto start = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    churn.maybe_churn(rng);
    driver.run_rounds(1);
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  BenchResult result;
  result.driver = "sequential";
  result.n = n;
  result.shards = 1;
  result.threads = 1;
  result.rounds = rounds;
  result.actions = driver.actions_executed();
  result.seconds = elapsed;
  result.actions_per_sec =
      static_cast<double>(driver.actions_executed()) / elapsed;
  result.rss_mb = rss_mib();
  return result;
}

// Four variants of the identical simulation (neither counting, recording,
// nor observation draws any RNG, so all four execute the same action
// sequence):
//   kNoopCounters  counter writes compiled out of the hot path — the
//                  no-op-sink baseline;
//   kBare          registry counting on (the default everywhere);
//   kRecorder      counting plus the flight recorder's per-event ring
//                  append on every protocol event;
//   kObserved      counting plus time-series recorder, watchdog, and phase
//                  profiler at stride 10.
// bare-vs-noop is the registry hot-path overhead and recorder-vs-bare the
// flight-recorder hot-path overhead (each gated < 2% in BENCH_scale.json);
// observed-vs-bare is the strided sampling cost, reported for transparency
// and amortizable by raising the stride.
enum class ShardedMode { kNoopCounters, kBare, kRecorder, kObserved };

// The overlay's health after a leg (E22): live in-degree mean/sd, churn
// events per round (kills + revives over 2 * rounds) and whether the live
// overlay is weakly connected. The circulant (huge-n) legs report only
// the out-degree mean, from a linear scan.
std::string overlay_health(sim::FlatRun& run) {
  const FlatSendForgetCluster& cluster = run.cluster();
  const sim::RunSpec& spec = run.spec();
  char buf[160];
  if (spec.circulant) {
    double mean = 0.0;
    for (NodeId u = 0; u < cluster.size(); ++u) {
      mean += static_cast<double>(cluster.degree(u));
    }
    std::snprintf(buf, sizeof(buf), "out-mean %.2f",
                  mean / static_cast<double>(cluster.size()));
    return buf;
  }
  obs::ProbeSlices slices;
  const obs::FlatClusterProbe probe =
      slices.run(obs::FlatViews(cluster), /*components=*/true);
  std::snprintf(buf, sizeof(buf), "in-mean %.2f in-sd %.2f churn %zu%% conn %s",
                probe.indegree.mean, probe.indegree.sd,
                100 * run.churn_events() / (2 * spec.rounds),
                probe.largest_component == probe.live_nodes ? "yes" : "NO");
  return buf;
}

BenchResult run_sharded(sim::RunSpec spec,
                        ShardedMode mode = ShardedMode::kBare,
                        std::uint64_t actions_hint = 0) {
  const bool observed = mode == ShardedMode::kObserved;
  spec.count_metrics = mode != ShardedMode::kNoopCounters;
  spec.series = observed;
  spec.watchdog = observed;
  spec.profiler = observed;
  // The recorder's cache-resident default ring.
  spec.recorder_capacity = mode == ShardedMode::kRecorder ? 1u << 9 : 0;
  const double rss_before = rss_mib();
  sim::FlatRun run(spec);
  const double elapsed = run.run();
  if (observed && run.watchdog()->violation_count() > 0) {
    std::fprintf(stderr, "%s", run.watchdog()->report().c_str());
  }
  // The no-op run counts nothing; its twin bare run supplies the action
  // count (identical schedule).
  const std::uint64_t actions = mode == ShardedMode::kNoopCounters
                                    ? actions_hint
                                    : run.driver().actions_executed();
  std::string name = observed ? "sharded_flat_observed"
                     : mode == ShardedMode::kNoopCounters
                         ? "sharded_flat_noop_counters"
                     : mode == ShardedMode::kRecorder
                         ? "sharded_flat_recorder"
                         : "sharded_flat";
  if (spec.protocol.pairs_per_message > 1) {
    name += "_p" + std::to_string(spec.protocol.pairs_per_message);
  }
  const double rss_after = rss_mib();
  const std::size_t n = spec.nodes;
  return BenchResult{std::move(name),
                     n,
                     spec.shards,
                     spec.threads,
                     spec.rounds,
                     actions,
                     elapsed,
                     static_cast<double>(actions) / elapsed,
                     rss_after,
                     std::max(0.0, rss_after - rss_before) * 1024.0 * 1024.0 /
                         static_cast<double>(n),
                     overlay_health(run)};
}

// Gate overheads measured by the paired/median protocol (see
// gate_overhead_run below); the per-result table alone cannot reproduce
// them, so they arrive precomputed.
struct GateOverheads {
  double registry_pct = 0.0;
  double recorder_pct = 0.0;
  std::size_t ref_n = 0;
};

bool emit_json(const std::vector<BenchResult>& results, std::ofstream& out,
               const GateOverheads& gates) {
  const std::size_t hw = std::thread::hardware_concurrency();
  emit_header(out, "scale_trajectory");
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    char buf[640];
    std::snprintf(buf, sizeof(buf),
                  "    {\"driver\": \"%s\", \"n\": %zu, \"shards\": %zu, "
                  "\"threads\": %zu, "
                  "\"rounds\": %zu, \"actions\": %llu, \"seconds\": %.3f, "
                  "\"actions_per_sec\": %.4g, \"rss_mb\": %.1f, "
                  "\"bytes_per_node\": %.1f, "
                  "\"oversubscribed\": %s}%s\n",
                  r.driver.c_str(), r.n, r.shards, r.threads, r.rounds,
                  static_cast<unsigned long long>(r.actions), r.seconds,
                  r.actions_per_sec, r.rss_mb, r.bytes_per_node,
                  r.threads > hw ? "true" : "false",
                  i + 1 < results.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n";

  // Headline ratio: sharded (max threads benched) vs sequential at the
  // largest n both drivers ran. Always the *measured* value from this run
  // — never hand-edited — with the shard count and oversubscription state
  // of the winning configuration recorded next to it.
  double seq = 0.0;
  double sharded = 0.0;
  std::size_t ref_n = 0;
  std::size_t best_threads = 0;
  double sharded_1t = 0.0;  // best single-worker leg at ref_n
  for (const BenchResult& r : results) {
    if (r.driver == "sequential" && r.n >= ref_n) {
      ref_n = r.n;
      seq = r.actions_per_sec;
    }
  }
  for (const BenchResult& r : results) {
    if (r.driver != "sharded_flat" || r.n != ref_n) continue;
    if (r.actions_per_sec > sharded) {
      sharded = r.actions_per_sec;
      best_threads = r.threads;
    }
    if (r.threads == 1 && r.actions_per_sec > sharded_1t) {
      sharded_1t = r.actions_per_sec;
    }
  }
  // Instrumentation overheads. All variants execute the identical action
  // sequence (neither counting nor observation draws RNG):
  //   registry_overhead_pct  counting vs no-op-sink baseline — the
  //                          hot-path cost of the registry. Gate: < 2%.
  //   recorder_overhead_pct  flight recorder attached vs bare — one ring
  //                          store per message fate. Gate: < 2%.
  //   obs_overhead_pct       observed (stride-10 sampling: O(n*s) probe,
  //                          watchdog scan) vs bare — reported for
  //                          transparency, amortized by raising the stride.
  // The two gated values come from the paired/median protocol in
  // gate_overhead_run; obs is informational and computed from the table.
  const auto overhead_vs = [&results](const char* base_name,
                                      const char* variant_name,
                                      std::size_t& out_ref_n) {
    double pct = 0.0;
    out_ref_n = 0;
    for (const BenchResult& a : results) {
      if (a.driver != base_name) continue;
      for (const BenchResult& b : results) {
        if (b.driver == variant_name && b.n == a.n && b.shards == a.shards &&
            b.threads == a.threads && a.n >= out_ref_n &&
            a.actions_per_sec > 0.0) {
          out_ref_n = a.n;
          pct = 100.0 * (1.0 - b.actions_per_sec / a.actions_per_sec);
        }
      }
    }
    return pct;
  };
  const std::size_t reg_ref_n = gates.ref_n;
  const std::size_t rec_ref_n = gates.ref_n;
  std::size_t obs_ref_n = 0;
  const double registry_overhead_pct = gates.registry_pct;
  const double recorder_overhead_pct = gates.recorder_pct;
  const double obs_overhead_pct =
      overhead_vs("sharded_flat", "sharded_flat_observed", obs_ref_n);

  char tail[1024];
  std::snprintf(tail, sizeof(tail),
                "  \"registry_overhead_pct\": %.2f,\n"
                "  \"registry_overhead_ref_n\": %zu,\n"
                "  \"recorder_overhead_pct\": %.2f,\n"
                "  \"recorder_overhead_ref_n\": %zu,\n"
                "  \"obs_overhead_pct\": %.2f,\n"
                "  \"obs_overhead_ref_n\": %zu,\n"
                "  \"speedup_vs_sequential_at_n%zu\": %.2f,\n"
                "  \"speedup_threads\": %zu,\n"
                "  \"speedup_oversubscribed\": %s",
                registry_overhead_pct, reg_ref_n, recorder_overhead_pct,
                rec_ref_n, obs_overhead_pct, obs_ref_n,
                ref_n, seq > 0.0 ? sharded / seq : 0.0, best_threads,
                best_threads > hw ? "true" : "false");
  out << tail;
  if (best_threads > hw && sharded_1t > 0.0) {
    // The winning configuration is oversubscribed (scheduling overlap, not
    // core scaling) — also emit the single-worker pair, which measures real
    // per-thread throughput and is directly comparable across machines.
    std::snprintf(tail, sizeof(tail),
                  ",\n  \"speedup_vs_sequential_at_n%zu_1t\": %.2f",
                  ref_n, seq > 0.0 ? sharded_1t / seq : 0.0);
    out << tail;
  }
  out << "\n}\n";
  return static_cast<bool>(out);
}

// --------------------------------------------------------------------------
// Analysis-pipeline benchmarks (--analysis).

struct DegreePoint {
  double loss = 0.0;
  double seconds = 0.0;
  std::size_t outer = 0;
  std::size_t inner = 0;
  double mean_in = 0.0;
  double sd_in = 0.0;
  bool converged = false;
};

struct DegreeRun {
  std::string solver;
  double seconds = 0.0;
  std::vector<DegreePoint> points;
  [[nodiscard]] std::size_t total_outer() const {
    std::size_t sum = 0;
    for (const DegreePoint& p : points) sum += p.outer;
    return sum;
  }
  [[nodiscard]] std::size_t total_inner() const {
    std::size_t sum = 0;
    for (const DegreePoint& p : points) sum += p.inner;
    return sum;
  }
};

DegreePoint degree_point(double loss, double seconds,
                         const analysis::DegreeMcResult& r) {
  double var = 0.0;
  for (std::size_t i = 0; i < r.in_pmf.size(); ++i) {
    const double d = static_cast<double>(i) - r.expected_in;
    var += r.in_pmf[i] * d * d;
  }
  return DegreePoint{loss,       seconds,          r.fixed_point_iterations,
                     r.stationary_iterations, r.expected_in,
                     std::sqrt(var), r.converged};
}

// The seed-faithful outer loop: damped fixed point, every loss point
// solved cold.
DegreeRun run_degree_baseline(analysis::DegreeMcParams params,
                              const std::vector<double>& losses) {
  params.acceleration = analysis::DegreeMcAcceleration::kDamped;
  DegreeRun run;
  run.solver = "damped_outer+direct_inner+cold_start";
  for (const double loss : losses) {
    params.loss = loss;
    const auto start = Clock::now();
    const auto r = analysis::solve_degree_mc(params);
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    run.points.push_back(degree_point(loss, elapsed, r));
    run.seconds += elapsed;
  }
  return run;
}

// The accelerated pipeline: Anderson outer, one solver, warm-started
// across the sweep.
DegreeRun run_degree_accelerated(const analysis::DegreeMcParams& params,
                                 const std::vector<double>& losses) {
  DegreeRun run;
  run.solver = "anderson_outer+direct_inner+warm_sweep";
  const auto start = Clock::now();
  const auto results = analysis::solve_degree_mc_sweep(params, losses);
  run.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  for (std::size_t i = 0; i < losses.size(); ++i) {
    run.points.push_back(degree_point(losses[i], 0.0, results[i]));
  }
  return run;
}

bool emit_analysis_json(bool quick, std::ofstream& out) {
  // Degree MC ℓ-sweep at the paper's running example (reduced for --quick).
  analysis::DegreeMcParams dp;
  dp.view_size = quick ? 20 : 40;
  dp.min_degree = quick ? 8 : 18;
  const std::vector<double> losses =
      quick ? std::vector<double>{0.0, 0.05}
            : std::vector<double>{0.0, 0.01, 0.05, 0.1};

  std::printf("degree MC baseline (damped, cold)...\n");
  const DegreeRun before = run_degree_baseline(dp, losses);
  std::printf("  %.3f s, outer %zu, inner %zu\n", before.seconds,
              before.total_outer(), before.total_inner());
  std::printf("degree MC accelerated (anderson, warm sweep)...\n");
  const DegreeRun after = run_degree_accelerated(dp, losses);
  std::printf("  %.3f s, outer %zu, inner %zu\n", after.seconds,
              after.total_outer(), after.total_inner());

  double max_mean_diff = 0.0;
  for (std::size_t i = 0; i < losses.size(); ++i) {
    max_mean_diff = std::max(
        max_mean_diff,
        std::abs(before.points[i].mean_in - after.points[i].mean_in));
  }

  // Prediction cache: the first call per (params, delta) solves, the
  // repeat is served from the cache.
  analysis::clear_prediction_cache();
  {
    analysis::DegreeMcParams cp = dp;
    cp.loss = losses.front();
    (void)analysis::make_theory_prediction(cp, 0.01);
    (void)analysis::make_theory_prediction(cp, 0.01);
  }
  const analysis::PredictionCacheStats cache_stats =
      analysis::prediction_cache_stats();

  // Exhaustive global MC: n = 4 ring + reverse-ring, no loss (the
  // Lemma 7.5 chain). Quick mode shrinks to n = 3.
  const std::size_t gn = quick ? 3 : 4;
  analysis::GlobalMcParams gp;
  gp.config = SendForgetConfig{.view_size = 6, .min_degree = 0};
  gp.loss = 0.0;
  Digraph init(gn);
  for (NodeId u = 0; u < gn; ++u) {
    init.add_edge(u, static_cast<NodeId>((u + 1) % gn));
    init.add_edge(u, static_cast<NodeId>((u + gn - 1) % gn));
  }
  gp.initial = init;
  std::printf("global MC (n=%zu)...\n", gn);
  auto g_start = Clock::now();
  const auto gr = analysis::build_global_mc(gp);
  const double g_seconds =
      std::chrono::duration<double>(Clock::now() - g_start).count();
  std::printf("  %.3f s, %zu states, %zu transitions\n", g_seconds,
              gr.states.size(), gr.chain.transition_count());

  // Mixing measurement on the same chain.
  const std::size_t mixing_steps = quick ? 50 : 200;
  auto m_start = Clock::now();
  const auto mr = analysis::measure_mixing(gr.chain, gr.stationary.distribution,
                                           mixing_steps, 0.01);
  const double m_seconds =
      std::chrono::duration<double>(Clock::now() - m_start).count();
  std::printf("mixing: %.3f s, tau_eps=%zu\n", m_seconds, mr.tau_epsilon);

  // Spectral gap of a random permutation-regular overlay.
  const std::size_t sn = quick ? 20'000 : 200'000;
  Rng rng(11);
  const Digraph overlay = permutation_regular(sn, 10, rng);
  auto s_start = Clock::now();
  const auto sr = estimate_spectral_gap(overlay);
  const double s_seconds =
      std::chrono::duration<double>(Clock::now() - s_start).count();
  std::printf("spectral (n=%zu): %.3f s, lambda2=%.4f, %zu iters\n", sn,
              s_seconds, sr.lambda2, sr.iterations);

  emit_header(out, "analysis_pipeline");
  out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";

  auto emit_run = [&out](const char* key, const DegreeRun& run,
                         bool per_point_seconds) {
    out << "    \"" << key << "\": {\n";
    out << "      \"solver\": \"" << run.solver << "\",\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf), "      \"seconds\": %.3f,\n", run.seconds);
    out << buf;
    out << "      \"outer_iterations\": " << run.total_outer() << ",\n";
    out << "      \"inner_iterations\": " << run.total_inner() << ",\n";
    out << "      \"points\": [\n";
    for (std::size_t i = 0; i < run.points.size(); ++i) {
      const DegreePoint& p = run.points[i];
      if (per_point_seconds) {
        std::snprintf(buf, sizeof(buf),
                      "        {\"loss\": %g, \"seconds\": %.3f, "
                      "\"outer\": %zu, \"inner\": %zu, "
                      "\"mean_in\": %.12f, \"sd_in\": %.12f}%s\n",
                      p.loss, p.seconds, p.outer, p.inner, p.mean_in, p.sd_in,
                      i + 1 < run.points.size() ? "," : "");
      } else {
        std::snprintf(buf, sizeof(buf),
                      "        {\"loss\": %g, \"outer\": %zu, \"inner\": %zu, "
                      "\"mean_in\": %.12f, \"sd_in\": %.12f, "
                      "\"converged\": %s}%s\n",
                      p.loss, p.outer, p.inner, p.mean_in, p.sd_in,
                      p.converged ? "true" : "false",
                      i + 1 < run.points.size() ? "," : "");
      }
      out << buf;
    }
    out << "      ]\n";
    out << "    }";
  };

  out << "  \"degree_mc\": {\n";
  out << "    \"view_size\": " << dp.view_size << ",\n";
  out << "    \"min_degree\": " << dp.min_degree << ",\n";
  emit_run("before", before, true);
  out << ",\n";
  emit_run("after", after, false);
  out << ",\n";
  char buf[512];
  const double wall_speedup =
      after.seconds > 0.0 ? before.seconds / after.seconds : 0.0;
  const double outer_ratio =
      after.total_outer() > 0
          ? static_cast<double>(before.total_outer()) /
                static_cast<double>(after.total_outer())
          : 0.0;
  const double inner_ratio =
      after.total_inner() > 0
          ? static_cast<double>(before.total_inner()) /
                static_cast<double>(after.total_inner())
          : 0.0;
  std::snprintf(buf, sizeof(buf),
                "    \"wall_speedup\": %.2f,\n"
                "    \"outer_iteration_ratio\": %.2f,\n"
                "    \"inner_iteration_ratio\": %.2f,\n"
                "    \"max_mean_indegree_diff\": %.3g\n  },\n",
                wall_speedup, outer_ratio, inner_ratio, max_mean_diff);
  out << buf;

  std::snprintf(buf, sizeof(buf),
                "  \"prediction_cache\": {\"hits\": %llu, \"misses\": %llu},\n",
                static_cast<unsigned long long>(cache_stats.hits),
                static_cast<unsigned long long>(cache_stats.misses));
  out << buf;

  std::snprintf(buf, sizeof(buf),
                "  \"global_mc\": {\"n\": %zu, \"states\": %zu, "
                "\"transitions\": %zu, \"seconds\": %.3f, "
                "\"stationary_iterations\": %zu, "
                "\"simple_state_uniformity_deviation\": %.3g},\n",
                gn, gr.states.size(), gr.chain.transition_count(), g_seconds,
                gr.stationary.iterations,
                gr.simple_state_uniformity_deviation);
  out << buf;
  char tau[32];
  if (mr.tau_epsilon == static_cast<std::size_t>(-1)) {
    std::snprintf(tau, sizeof(tau), "null");  // not reached within steps
  } else {
    std::snprintf(tau, sizeof(tau), "%zu", mr.tau_epsilon);
  }
  std::snprintf(buf, sizeof(buf),
                "  \"mixing\": {\"states\": %zu, \"steps\": %zu, "
                "\"seconds\": %.3f, \"tau_epsilon\": %s, "
                "\"decay_rate\": %.4f},\n",
                gr.states.size(), mixing_steps, m_seconds, tau,
                mr.decay_rate);
  out << buf;
  std::snprintf(buf, sizeof(buf),
                "  \"spectral\": {\"n\": %zu, \"seconds\": %.3f, "
                "\"lambda2\": %.6f, \"iterations\": %zu, "
                "\"converged\": %s}\n",
                sn, s_seconds, sr.lambda2, sr.iterations,
                sr.converged ? "true" : "false");
  out << buf << "}\n";
  std::printf("degree MC: %.2fx wall, %.2fx outer, %.2fx inner, "
              "max mean diff %.2g\n",
              wall_speedup, outer_ratio, inner_ratio, max_mean_diff);
  return static_cast<bool>(out);
}

// --------------------------------------------------------------------------
// Telemetry mode (--telemetry): exercise the full observability stack and
// dump it. One sharded run with series/watchdog/profiler attached, then an
// instrumented degree-MC solve and spectral power iteration through a
// recording solver sink.

// Exporter-overhead leg: one observed sharded run (time series attached,
// exactly like the main telemetry leg) with or without a SnapshotStreamer
// draining to a JSONL sink. Both variants share seed and schedule, so the
// fingerprints must match bit-for-bit — attaching the export plane may cost
// time but must never perturb the simulation.
struct ExportLeg {
  double actions_per_sec = 0.0;
  std::uint64_t fingerprint = 0;
  std::uint64_t snapshots = 0;
  std::size_t jsonl_bytes = 0;
  obs::HistogramQuantiles outdegree;  // from the final snapshot
};

ExportLeg run_export_leg(std::size_t n, std::size_t threads,
                         std::size_t rounds, bool with_streamer) {
  sim::RunSpec spec = bench_run(n, threads, rounds);
  spec.stride = 10;
  spec.series = true;
  if (with_streamer) {
    spec.snapshot_stride = 1;
    spec.keep_snapshots = true;
  }
  sim::FlatRun run(spec);
  const double seconds = run.run();

  ExportLeg leg;
  leg.actions_per_sec =
      seconds > 0.0
          ? static_cast<double>(run.driver().actions_executed()) / seconds
          : 0.0;
  leg.fingerprint = run.cluster().fingerprint();
  if (const obs::SnapshotStreamer* streamer = run.streamer()) {
    leg.snapshots = streamer->snapshots_taken();
    leg.jsonl_bytes = run.snapshots().size();
    for (const obs::SnapshotHistogram& h : streamer->last().histograms) {
      if (h.name == "outdegree") leg.outdegree = h.quantiles;
    }
  }
  return leg;
}

bool emit_telemetry_json(bool quick, std::ofstream& out) {
  const std::size_t n = quick ? 5'000 : 50'000;
  const std::size_t threads = 4;
  // Past the 100-round watchdog warmup in both modes, so the Lemma 6.6/6.7
  // rate checks run against a steady-state window.
  const std::size_t rounds = quick ? 150 : 250;
  const std::uint64_t stride = 10;

  // dL-seeded (§6.5 join outdegree): Obs 5.1 holds from round 0 and the
  // rate lemmas apply once the post-warmup window accumulates mass.
  sim::RunSpec spec = bench_run(n, threads, rounds);
  spec.churn = true;
  spec.stride = stride;
  spec.series = true;
  spec.watchdog = true;
  spec.profiler = true;
  sim::FlatRun run(spec);
  const obs::InvariantWatchdog& watchdog = *run.watchdog();

  std::printf("telemetry: sharded n=%zu threads=%zu rounds=%zu stride=%llu\n",
              n, threads, rounds, static_cast<unsigned long long>(stride));
  const double sim_seconds = run.run();
  std::printf("%s", run.profiler()->report().c_str());
  std::printf("%s", watchdog.report().c_str());

  obs::RecordingSolverSink sink;
  analysis::DegreeMcParams dp;
  dp.view_size = quick ? 20 : 40;
  dp.min_degree = quick ? 8 : 18;
  dp.loss = 0.05;
  dp.telemetry = &sink;
  const auto d_start = Clock::now();
  const auto dr = analysis::solve_degree_mc(dp);
  const double d_seconds =
      std::chrono::duration<double>(Clock::now() - d_start).count();
  std::printf("degree MC: %zu outer, %zu inner iterations (%.3f s)\n",
              sink.iteration_count("degree_mc_outer"),
              sink.iteration_count("degree_mc_inner"), d_seconds);

  const std::size_t sn = quick ? 5'000 : 50'000;
  Rng srng(11);
  const Digraph overlay = permutation_regular(sn, 10, srng);
  SpectralOptions so;
  so.telemetry = &sink;
  const auto s_start = Clock::now();
  const auto sr = estimate_spectral_gap(overlay, so);
  const double s_seconds =
      std::chrono::duration<double>(Clock::now() - s_start).count();
  std::printf("spectral: lambda2=%.4f in %zu iterations (%.3f s)\n",
              sr.lambda2, sr.iterations, s_seconds);

  // Exporter overhead: per repetition run base then streamer-attached
  // strictly back-to-back, report the median of the per-pair percentage
  // deltas (same protocol as the scale-mode overhead gates).
  const std::size_t ex_n = quick ? 5'000 : 20'000;
  const std::size_t ex_rounds = quick ? 200 : 160;
  const std::size_t ex_reps = quick ? 5 : 5;
  std::vector<double> ex_pcts;
  ExportLeg ex_base;
  ExportLeg ex_var;
  // Discarded warmup pair: the first run pays cold caches and first-touch
  // page faults that would otherwise bias the base leg.
  (void)run_export_leg(ex_n, threads, ex_rounds, false);
  (void)run_export_leg(ex_n, threads, ex_rounds, true);
  for (std::size_t i = 0; i < ex_reps; ++i) {
    // Alternate which leg runs first so a monotone machine-speed drift
    // (thermal, noisy neighbours) cannot bias one side of every pair.
    if (i % 2 == 0) {
      ex_base = run_export_leg(ex_n, threads, ex_rounds, false);
      ex_var = run_export_leg(ex_n, threads, ex_rounds, true);
    } else {
      ex_var = run_export_leg(ex_n, threads, ex_rounds, true);
      ex_base = run_export_leg(ex_n, threads, ex_rounds, false);
    }
    if (ex_base.actions_per_sec > 0.0) {
      ex_pcts.push_back(
          100.0 * (1.0 - ex_var.actions_per_sec / ex_base.actions_per_sec));
    }
  }
  std::sort(ex_pcts.begin(), ex_pcts.end());
  const double ex_pct =
      ex_pcts.empty() ? 0.0
      : ex_pcts.size() % 2 == 1
          ? ex_pcts[ex_pcts.size() / 2]
          : 0.5 * (ex_pcts[ex_pcts.size() / 2 - 1] +
                   ex_pcts[ex_pcts.size() / 2]);
  const bool ex_fp_match = ex_base.fingerprint == ex_var.fingerprint;
  std::printf(
      "export: streamer overhead %.2f%% (n=%zu rounds=%zu reps=%zu), "
      "%llu snapshots, fingerprint %s\n",
      ex_pct, ex_n, ex_rounds, ex_reps,
      static_cast<unsigned long long>(ex_var.snapshots),
      ex_fp_match ? "match" : "MISMATCH");

  emit_header(out, "telemetry");
  out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"simulation\": {\n    \"driver\": \"sharded_flat\", "
                "\"n\": %zu, \"threads\": %zu, \"rounds\": %zu, "
                "\"loss\": 0.02, \"stride\": %llu, \"actions\": %llu, "
                "\"seconds\": %.3f,\n",
                n, threads, rounds, static_cast<unsigned long long>(stride),
                static_cast<unsigned long long>(
                    run.driver().actions_executed()),
                sim_seconds);
  out << buf;
  out << "    \"series\": ";
  run.series()->write_json(out);
  out << ",\n    \"watchdog\": ";
  watchdog.write_json(out);
  out << ",\n    \"phases\": ";
  run.profiler()->write_json(out);
  out << ",\n    \"registry\": ";
  run.driver().metrics_registry().write_json(out);
  out << "\n  },\n";

  std::snprintf(
      buf, sizeof(buf),
      "  \"export\": {\n"
      "    \"snapshot_schema\": {\"name\": \"%.*s\", \"version\": %d, "
      "\"delta_encoded\": true},\n"
      "    \"n\": %zu, \"rounds\": %zu, \"reps\": %zu, "
      "\"snapshots\": %llu, \"jsonl_bytes\": %zu,\n"
      "    \"exporter_overhead_pct\": %.2f, \"fingerprint_match\": %s,\n"
      "    \"outdegree_quantiles\": {\"p50\": %.3f, \"p90\": %.3f, "
      "\"p99\": %.3f}\n"
      "  },\n",
      static_cast<int>(obs::kSnapshotSchemaName.size()),
      obs::kSnapshotSchemaName.data(), obs::kSnapshotSchemaVersion, ex_n,
      ex_rounds, ex_reps, static_cast<unsigned long long>(ex_var.snapshots),
      ex_var.jsonl_bytes, ex_pct, ex_fp_match ? "true" : "false",
      ex_var.outdegree.p50, ex_var.outdegree.p90, ex_var.outdegree.p99);
  out << buf;

  // Full residual trajectory for the (small) outer loop; the inner power
  // iterations are summarized as counts to keep the file bounded.
  auto json_finite = [](double v) { return std::isfinite(v) ? v : 0.0; };
  std::snprintf(
      buf, sizeof(buf),
      "  \"solvers\": {\n"
      "    \"degree_mc\": {\"loss\": %g, \"converged\": %s, "
      "\"outer_iterations\": %zu, \"inner_iterations\": %zu, "
      "\"history_resets\": %zu, \"cooldowns\": %zu, \"damped_steps\": %zu, "
      "\"final_outer_residual\": %.3g, \"seconds\": %.3f,\n",
      dp.loss, dr.converged ? "true" : "false",
      sink.iteration_count("degree_mc_outer"),
      sink.iteration_count("degree_mc_inner"),
      sink.event_count("degree_mc_outer", "history_reset") +
          sink.event_count("degree_mc_inner", "history_reset"),
      sink.event_count("degree_mc_outer", "cooldown") +
          sink.event_count("degree_mc_inner", "cooldown"),
      sink.event_count("degree_mc_outer", "damped_step"),
      json_finite(sink.last_residual("degree_mc_outer")), d_seconds);
  out << buf;
  out << "      \"outer_residuals\": [";
  bool first = true;
  for (const obs::RecordingSolverSink::Iteration& it : sink.iterations()) {
    if (it.solver != "degree_mc_outer") continue;
    if (!first) out << ", ";
    first = false;
    std::snprintf(buf, sizeof(buf), "%.6g", json_finite(it.residual));
    out << buf;
  }
  out << "]\n    },\n";
  std::snprintf(buf, sizeof(buf),
                "    \"spectral\": {\"n\": %zu, \"lambda2\": %.6f, "
                "\"iterations\": %zu, \"converged\": %s, "
                "\"last_residual\": %.3g, \"seconds\": %.3f}\n",
                sn, sr.lambda2, sr.iterations, sr.converged ? "true" : "false",
                json_finite(sink.last_residual("spectral_power")), s_seconds);
  out << buf;
  out << "  }\n}\n";
  if (watchdog.violation_count() > 0) {
    std::fprintf(stderr, "error: watchdog reported %llu violations\n",
                 static_cast<unsigned long long>(watchdog.violation_count()));
  }
  return static_cast<bool>(out) && watchdog.violation_count() == 0;
}

// --------------------------------------------------------------------------
// Drift mode (--drift): the TheoryOracle's end-to-end gates. One correctly
// parameterized run that must stay clean, one deliberately mis-parameterized
// run that must trip the DriftMonitor and dump the armed flight recorder.

struct DriftRun {
  std::size_t n = 0;
  std::size_t threads = 0;
  std::size_t rounds = 0;
  double sim_loss = 0.0;
  double seconds = 0.0;
  std::uint64_t actions = 0;
  std::uint64_t probes = 0;
  std::uint64_t warns = 0;
  std::uint64_t violations = 0;
  obs::OracleSnapshot snap;
  double peak[static_cast<std::size_t>(obs::DriftCheck::kCheckCount)] = {};
  bool dump_written = false;
  std::uint64_t dump_events = 0;
  std::uint64_t dump_dropped = 0;
};

// One sharded run (same churn schedule as telemetry mode) with the oracle
// and flight recorder attached. `sim_loss` is what the network actually
// drops; `pred` is what the oracle expects — the two differ only in the
// mis-parameterized leg.
DriftRun run_drift(std::size_t n, std::size_t threads, std::size_t rounds,
                   double sim_loss, const obs::TheoryPrediction& pred,
                   const std::string& dump_path) {
  DriftRun run;
  run.n = n;
  run.threads = threads;
  run.rounds = rounds;
  run.sim_loss = sim_loss;

  sim::RunSpec spec = bench_run(n, threads, rounds);
  spec.loss = sim_loss;
  spec.churn = true;
  spec.stride = 10;
  spec.prediction = pred;
  spec.recorder_capacity = 1u << 9;
  sim::FlatRun flat(spec);
  const obs::TheoryOracle& oracle = *flat.oracle();
  flat.oracle()->arm_flight_dump(flat.recorder(), dump_path);

  run.seconds = flat.run();
  run.actions = flat.driver().actions_executed();
  run.probes = oracle.probes();
  run.warns = oracle.monitor().warn_transitions();
  run.violations = oracle.monitor().violation_transitions();
  run.snap = oracle.last();
  for (std::size_t c = 0;
       c < static_cast<std::size_t>(obs::DriftCheck::kCheckCount); ++c) {
    run.peak[c] = oracle.monitor().peak_score(static_cast<obs::DriftCheck>(c));
  }
  run.dump_written = oracle.flight_dumped();
  if (run.dump_written) {
    obs::FlightTrace trace;
    if (trace.load_file(dump_path)) {
      run.dump_events = trace.events().size();
      run.dump_dropped = trace.total_dropped();
    } else {
      run.dump_written = false;  // unreadable dump is a failed dump
    }
  }
  std::printf("%s", oracle.report().c_str());
  return run;
}

void emit_drift_run(std::ofstream& out, const char* key, const DriftRun& r,
                    const obs::TheoryPrediction& pred) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "  \"%s\": {\n"
      "    \"n\": %zu, \"threads\": %zu, \"rounds\": %zu,\n"
      "    \"sim_loss\": %g, \"predicted_loss\": %g, \"seconds\": %.3f,\n"
      "    \"actions\": %llu, \"probes\": %llu,\n"
      "    \"warn_transitions\": %llu, \"violation_transitions\": %llu,\n",
      key, r.n, r.threads, r.rounds, r.sim_loss, pred.loss, r.seconds,
      static_cast<unsigned long long>(r.actions),
      static_cast<unsigned long long>(r.probes),
      static_cast<unsigned long long>(r.warns),
      static_cast<unsigned long long>(r.violations));
  out << buf;
  out << "    \"peak_scores\": {";
  for (std::size_t c = 0;
       c < static_cast<std::size_t>(obs::DriftCheck::kCheckCount); ++c) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.3f",
                  c == 0 ? "" : ", ",
                  obs::drift_check_name(static_cast<obs::DriftCheck>(c)),
                  r.peak[c]);
    out << buf;
  }
  out << "},\n";
  const obs::OracleSnapshot& s = r.snap;
  std::snprintf(
      buf, sizeof(buf),
      "    \"last_probe\": {\n"
      "      \"round\": %llu,\n"
      "      \"degree_checked\": %s, \"tvd_out\": %.5f, "
      "\"tvd_out_limit\": %.5f, \"tvd_in\": %.5f, \"tvd_in_limit\": %.5f,\n"
      "      \"chi2_out\": %.1f, \"chi2_out_limit\": %.1f, "
      "\"chi2_in\": %.1f, \"chi2_in_limit\": %.1f,\n"
      "      \"rates_checked\": %s, \"duplication_rate\": %.5f, "
      "\"deletion_rate\": %.5f, \"window_sent\": %llu,\n"
      "      \"uniformity_checked\": %s, \"uniformity_z\": %.3f, "
      "\"uniformity_limit\": %.3f, \"uniformity_ids\": %llu,\n"
      "      \"alpha_checked\": %s, \"alpha_hat\": %.5f, "
      "\"alpha_lower_bound\": %.5f\n    },\n",
      static_cast<unsigned long long>(s.round),
      s.degree_checked ? "true" : "false", s.tvd_out, s.tvd_out_limit,
      s.tvd_in, s.tvd_in_limit, s.chi2_out, s.chi2_out_limit, s.chi2_in,
      s.chi2_in_limit, s.rates_checked ? "true" : "false",
      s.duplication_rate, s.deletion_rate,
      static_cast<unsigned long long>(s.window_sent),
      s.uniformity_checked ? "true" : "false", s.uniformity_z,
      s.uniformity_limit, static_cast<unsigned long long>(s.uniformity_ids),
      s.alpha_checked ? "true" : "false", s.alpha_hat,
      pred.alpha_lower_bound);
  out << buf;
  std::snprintf(buf, sizeof(buf),
                "    \"dump_written\": %s, \"dump_events\": %llu, "
                "\"dump_dropped\": %llu\n  }",
                r.dump_written ? "true" : "false",
                static_cast<unsigned long long>(r.dump_events),
                static_cast<unsigned long long>(r.dump_dropped));
  out << buf;
}

bool emit_drift_json(bool quick, const std::string& path,
                     std::ofstream& out) {
  // Predictions at the paper's running example (s=40, dL=18) and ℓ = 0.02
  // — the same configuration every sharded bench simulates.
  const obs::TheoryPrediction pred = sim::theory_prediction(
      default_send_forget_config(), 0.02);

  // The clean leg needs to clear the oracle's 400-round statistical warmup
  // with enough post-warmup probes for the streaming checks.
  const std::size_t clean_n = quick ? 10'000 : 50'000;
  const std::size_t clean_rounds = quick ? 520 : 600;
  // The mis-parameterized leg trips on the first few post-warmup probes,
  // so it barely needs to outlive the warmup.
  const std::size_t mis_n = quick ? 8'000 : 20'000;
  const std::size_t mis_rounds = 480;
  const std::size_t threads = 4;

  std::printf("drift: clean run n=%zu rounds=%zu loss=%.2f (predicted %.2f)\n",
              clean_n, clean_rounds, 0.02, pred.loss);
  const DriftRun clean = run_drift(clean_n, threads, clean_rounds, 0.02, pred,
                                   path + ".clean.trace");
  std::printf("drift: mis-parameterized run n=%zu rounds=%zu loss=%.2f "
              "(predicted %.2f)\n",
              mis_n, mis_rounds, 0.10, pred.loss);
  const DriftRun mis = run_drift(mis_n, threads, mis_rounds, 0.10, pred,
                                 path + ".misparam.trace");

  const bool clean_ok = clean.violations == 0;
  const bool mis_ok =
      mis.violations > 0 && mis.dump_written && mis.dump_events > 0;

  emit_header(out, "drift_oracle");
  out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"prediction\": {\"loss\": %g, \"delta\": %g, "
                "\"view_size\": %zu, \"min_degree\": %zu, "
                "\"expected_out\": %.4f, \"expected_in\": %.4f, "
                "\"duplication_probability\": %.5f, "
                "\"deletion_probability\": %.5f, "
                "\"alpha_lower_bound\": %.4f},\n",
                pred.loss, pred.delta, pred.view_size, pred.min_degree,
                pred.expected_out, pred.expected_in,
                pred.duplication_probability, pred.deletion_probability,
                pred.alpha_lower_bound);
  out << buf;
  emit_drift_run(out, "clean", clean, pred);
  out << ",\n";
  emit_drift_run(out, "misparam", mis, pred);
  out << ",\n";
  std::snprintf(buf, sizeof(buf),
                "  \"gates\": {\"clean_zero_violations\": %s, "
                "\"misparam_tripped\": %s}\n}\n",
                clean_ok ? "true" : "false", mis_ok ? "true" : "false");
  out << buf;
  if (!clean_ok) {
    std::fprintf(stderr,
                 "error: clean run reported %llu drift violations\n",
                 static_cast<unsigned long long>(clean.violations));
  }
  if (!mis_ok) {
    std::fprintf(stderr,
                 "error: mis-parameterized run failed to trip the monitor "
                 "(violations=%llu dump=%d events=%llu)\n",
                 static_cast<unsigned long long>(mis.violations),
                 mis.dump_written ? 1 : 0,
                 static_cast<unsigned long long>(mis.dump_events));
  }
  return static_cast<bool>(out) && clean_ok && mis_ok;
}

// ---------------------------------------------------------------------------
// Chaos mode (--chaos): fault-plane recovery gates. Each leg runs the
// sharded driver with a scripted FaultSchedule (or a mass kill) and a
// RecoveryTracker; the committed gates bound the measured time-to-recover.
// Calibration (n=4000, ℓ=0.01, stride 5): a 20-round symmetric cut dips
// the mean outdegree ~4 below baseline and the post-heal mean climbs back
// ~0.05–0.07/round, so the partition leg measures ~140 recovery rounds —
// budgets below carry ~2x headroom over that, not tuned to the seed.

// A chaos leg: the bench's seeds on 4 shards at ℓ = 0.01, recovery
// tracked, observed every 5 rounds.
sim::RunSpec chaos_leg(std::size_t n, std::size_t rounds) {
  sim::RunSpec spec = bench_run(n, 4, rounds);
  spec.loss = 0.01;
  spec.stride = 5;
  spec.recovery = true;
  return spec;
}

// The fault shapes the chaos, forensics and arena legs share. Every window
// begins at round 150 or later, so the recovery tracker pins its calm
// baseline on 50 post-warmup probes before the overlay is pushed out of
// band.
//
// A symmetric 20-round cut between the id space's two halves. Short on
// purpose: S&F has no discovery, so a cut held past cross-edge washout
// (~4-round half-life) can never re-merge.
sim::FaultPhase half_split(std::size_t n) {
  sim::FaultPhase cut;
  cut.kind = sim::FaultKind::kPartition;
  cut.begin = 150;
  cut.end = 170;
  cut.a_lo = 0;
  cut.a_hi = static_cast<NodeId>(n / 2 - 1);
  cut.b_lo = static_cast<NodeId>(n / 2);
  cut.b_hi = static_cast<NodeId>(n - 1);
  cut.label = "split";
  return cut;
}

// 40 rounds of Gilbert-Elliott bursts (50% average loss, mean burst
// length 8) for senders in region 1 of 4 (the schedule sets regions).
sim::FaultPhase rack_burst() {
  sim::FaultPhase burst;
  burst.kind = sim::FaultKind::kBurst;
  burst.begin = 150;
  burst.end = 190;
  burst.region = 1;
  burst.rate = 0.5;
  burst.burst_len = 8.0;
  burst.label = "rack-burst";
  return burst;
}

sim::FaultPhase loss_spike(std::uint64_t begin, std::uint64_t end,
                           double rate, const char* label) {
  sim::FaultPhase spike;
  spike.kind = sim::FaultKind::kLossSpike;
  spike.begin = begin;
  spike.end = end;
  spike.rate = rate;
  spike.label = label;
  return spike;
}

struct ChaosRun {
  sim::RunSpec spec;
  double seconds = 0.0;
  std::uint64_t actions = 0;
  std::uint64_t sent = 0;
  std::uint64_t faulted = 0;
  std::size_t killed = 0;
  std::vector<obs::RecoveryEpisode> episodes;
  std::size_t unrecovered = 0;
  std::uint32_t final_lanes = 0;
  double component_fraction = 1.0;
  std::uint64_t warns = 0;       // oracle legs only
  std::uint64_t violations = 0;  // oracle legs only
  bool degree_in_band = true;    // oracle legs: degree lanes kOk at the end
  std::size_t retunes = 0;       // retune legs only
  std::size_t installed_min_degree = 0;
  double loss_estimate = 0.0;
};

ChaosRun run_chaos(const sim::RunSpec& spec) {
  ChaosRun run;
  run.spec = spec;
  sim::FlatRun flat(spec);
  run.seconds = flat.run();
  run.actions = flat.driver().actions_executed();
  run.sent = flat.driver().network_metrics().sent;
  run.faulted = flat.driver().network_metrics().faulted;
  run.killed = flat.killed();
  const obs::RecoveryTracker& tracker = *flat.recovery();
  run.episodes = tracker.episodes();
  run.unrecovered = tracker.unrecovered();
  run.final_lanes = tracker.degraded_lanes();
  run.component_fraction = tracker.component_fraction();
  if (const obs::TheoryOracle* oracle = flat.oracle()) {
    run.warns = oracle->monitor().warn_transitions();
    run.violations = oracle->monitor().violation_transitions();
    run.degree_in_band =
        oracle->monitor().state(obs::DriftCheck::kDegreeOut) ==
            obs::DriftState::kOk &&
        oracle->monitor().state(obs::DriftCheck::kDegreeIn) ==
            obs::DriftState::kOk;
  }
  if (const sim::RetuneController* retune = flat.retune()) {
    run.retunes = retune->retunes_applied();
    run.installed_min_degree = flat.cluster().config().min_degree;
    run.loss_estimate = retune->last_loss_estimate();
    std::printf("%s", retune->report().c_str());
  }
  std::printf("%s", tracker.report().c_str());
  return run;
}

const obs::RecoveryEpisode* chaos_episode(const ChaosRun& run,
                                          const char* label) {
  for (const obs::RecoveryEpisode& e : run.episodes) {
    if (e.label == label) return &e;
  }
  return nullptr;
}

// Gate: the labelled episode degraded, recovered, and the measured
// time-to-recover fits the budget — and no episode in the leg is left
// unrecovered.
bool chaos_recovered(const ChaosRun& run, const char* label,
                     std::uint64_t budget) {
  const obs::RecoveryEpisode* e = chaos_episode(run, label);
  return e != nullptr && e->degraded && e->recovered &&
         e->recovery_rounds() <= budget && run.unrecovered == 0;
}

void emit_chaos_run(std::ofstream& out, const char* key, const ChaosRun& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "  \"%s\": {\n"
      "    \"n\": %zu, \"threads\": %zu, \"rounds\": %zu, \"loss\": %g,\n"
      "    \"seconds\": %.3f, \"actions\": %llu, \"sent\": %llu, "
      "\"faulted\": %llu, \"killed\": %zu,\n"
      "    \"unrecovered\": %zu, \"final_degraded_lanes\": %u, "
      "\"component_fraction\": %.4f,\n",
      key, r.spec.nodes, r.spec.shards, r.spec.rounds, r.spec.loss, r.seconds,
      static_cast<unsigned long long>(r.actions),
      static_cast<unsigned long long>(r.sent),
      static_cast<unsigned long long>(r.faulted), r.killed, r.unrecovered,
      r.final_lanes, r.component_fraction);
  out << buf;
  if (r.spec.prediction) {
    std::snprintf(buf, sizeof(buf),
                  "    \"warn_transitions\": %llu, "
                  "\"violation_transitions\": %llu, "
                  "\"degree_in_band\": %s,\n",
                  static_cast<unsigned long long>(r.warns),
                  static_cast<unsigned long long>(r.violations),
                  r.degree_in_band ? "true" : "false");
    out << buf;
  }
  if (r.spec.retune) {
    std::snprintf(buf, sizeof(buf),
                  "    \"retunes_applied\": %zu, "
                  "\"installed_min_degree\": %zu, "
                  "\"loss_estimate\": %.4f,\n",
                  r.retunes, r.installed_min_degree, r.loss_estimate);
    out << buf;
  }
  out << "    \"episodes\": [";
  for (std::size_t i = 0; i < r.episodes.size(); ++i) {
    const obs::RecoveryEpisode& e = r.episodes[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n      {\"label\": \"%s\", \"declared\": %s, "
                  "\"begin\": %llu, \"heal\": %llu, \"degraded\": %s, "
                  "\"recovered\": %s, \"recovery_rounds\": %llu, "
                  "\"lanes\": [",
                  i == 0 ? "" : ",", e.label.c_str(),
                  e.declared ? "true" : "false",
                  static_cast<unsigned long long>(e.begin),
                  static_cast<unsigned long long>(e.heal),
                  e.degraded ? "true" : "false",
                  e.recovered ? "true" : "false",
                  static_cast<unsigned long long>(e.recovery_rounds()));
    out << buf;
    bool first = true;
    for (std::size_t lane = 0;
         lane < static_cast<std::size_t>(obs::RecoveryLane::kLaneCount);
         ++lane) {
      if ((e.lanes & (1u << lane)) == 0) continue;
      out << (first ? "\"" : ", \"")
          << obs::recovery_lane_name(static_cast<obs::RecoveryLane>(lane))
          << "\"";
      first = false;
    }
    out << "]}";
  }
  out << "\n    ]\n  }";
}

bool emit_chaos_json(bool quick, std::ofstream& out) {
  // Recovery budgets are round counts and mean-field (n-independent), so
  // quick mode only shrinks n; the fault windows and budgets stay fixed.
  const std::size_t n = quick ? 2'000 : 4'000;
  // Measured at n=4000: partition 90, mass kill ~205, burst 50 recovery
  // rounds; budgets carry ~2x headroom so they bound regressions without
  // being tuned to one seed.
  constexpr std::uint64_t kPartitionBudget = 200;
  constexpr std::uint64_t kMassKillBudget = 360;
  constexpr std::uint64_t kBurstBudget = 150;

  // Leg 1: the symmetric 20-round partition.
  sim::RunSpec partition = chaos_leg(n, 480);
  partition.faults.phases.push_back(half_split(n));

  // Leg 2: kill 20% of the cluster at round 150, no fault plane — the
  // recovery tracker must see the to-dead loss transient and measure the
  // overlay's climb back into band.
  sim::RunSpec mass = chaos_leg(n, 520);
  mass.kill_fraction = 0.20;
  mass.kill_round = 150;

  // Leg 3: the regional burst. Gate: the overlay rides it out — nothing
  // left degraded at the end of the run.
  sim::RunSpec burst = chaos_leg(n, 420);
  burst.faults.regions = 4;
  burst.faults.phases.push_back(rack_burst());

  // Leg 4: a loss spike the oracle was NOT told about, landing after its
  // 400-round statistical warmup. The fault plane must not blunt drift
  // detection: the DriftMonitor has to trip, and the tracker has to open
  // an undeclared episode.
  const obs::TheoryPrediction exact = sim::theory_prediction(
      default_send_forget_config(), 0.01);
  sim::RunSpec spike = chaos_leg(n, 520);
  spike.declare_faults = false;
  spike.prediction = exact;
  spike.faults.phases.push_back(loss_spike(440, 480, 0.15, "undeclared-spike"));

  // Legs 5 and 6: a sustained 12% loss spike from round 400 to the end of
  // the run — far too long to ride out. Unattended (loss_retune_off) the
  // drift monitor must escalate to VIOLATION; with the §6.3 controller
  // closing the loop (loss_retune) the run must end with zero violations,
  // at least one applied retune, and the degree lanes back in band. The
  // oracle warms up 300 rounds (enough for the regular seed topology to
  // mix into the ℓ-stationary distribution) so the monitor judges the
  // spike, not the warm-in transient. Both legs are primed with the same
  // exact §6.2 prediction, which the retune leg's controller re-solves
  // live.
  sim::RunSpec retune_off = chaos_leg(n, 1200);
  retune_off.declare_faults = false;
  retune_off.prediction = exact;
  retune_off.oracle_warmup = 300;
  retune_off.faults.phases.push_back(
      loss_spike(400, retune_off.rounds + 1, 0.12, "sustained-spike"));
  sim::RunSpec retune_on = retune_off;
  retune_on.retune = true;

  std::printf("chaos: partition leg n=%zu rounds=%zu cut=[150,170)\n", n,
              partition.rounds);
  const ChaosRun part_run = run_chaos(partition);
  std::printf("chaos: mass-failure leg n=%zu rounds=%zu kill=20%%@150\n", n,
              mass.rounds);
  const ChaosRun mass_run = run_chaos(mass);
  std::printf("chaos: burst leg n=%zu rounds=%zu region=1 rate=0.5\n", n,
              burst.rounds);
  const ChaosRun burst_run = run_chaos(burst);
  std::printf("chaos: undeclared-spike leg n=%zu rounds=%zu "
              "spike=[440,480) rate=0.15 (oracle attached)\n",
              n, spike.rounds);
  const ChaosRun spike_run = run_chaos(spike);
  std::printf("chaos: sustained-spike leg n=%zu rounds=%zu "
              "spike=[400,end) rate=0.12 (retune ON)\n",
              n, retune_on.rounds);
  const ChaosRun retune_run = run_chaos(retune_on);
  std::printf("chaos: sustained-spike leg n=%zu rounds=%zu "
              "spike=[400,end) rate=0.12 (retune OFF)\n",
              n, retune_off.rounds);
  const ChaosRun retune_off_run = run_chaos(retune_off);

  const bool part_ok = chaos_recovered(part_run, "split", kPartitionBudget) &&
                       part_run.faulted > 0;
  const bool mass_ok = chaos_recovered(mass_run, "mass-kill", kMassKillBudget);
  const bool burst_ok =
      chaos_recovered(burst_run, "rack-burst", kBurstBudget) &&
      burst_run.final_lanes == 0 && burst_run.faulted > 0;
  const obs::RecoveryEpisode* undeclared =
      chaos_episode(spike_run, "undeclared");
  const bool spike_ok = spike_run.violations > 0 && undeclared != nullptr &&
                        undeclared->degraded && spike_run.faulted > 0;
  const bool retune_ok = retune_run.violations == 0 &&
                         retune_run.retunes >= 1 &&
                         retune_run.degree_in_band &&
                         retune_run.unrecovered == 0 &&
                         retune_run.faulted > 0;
  const bool retune_off_ok =
      retune_off_run.violations > 0 && retune_off_run.faulted > 0;

  emit_header(out, "chaos_faults");
  out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"budgets\": {\"partition_rounds\": %llu, "
                "\"mass_kill_rounds\": %llu, \"burst_rounds\": %llu},\n",
                static_cast<unsigned long long>(kPartitionBudget),
                static_cast<unsigned long long>(kMassKillBudget),
                static_cast<unsigned long long>(kBurstBudget));
  out << buf;
  emit_chaos_run(out, "partition_heal", part_run);
  out << ",\n";
  emit_chaos_run(out, "mass_failure", mass_run);
  out << ",\n";
  emit_chaos_run(out, "burst_survival", burst_run);
  out << ",\n";
  emit_chaos_run(out, "undeclared_spike", spike_run);
  out << ",\n";
  emit_chaos_run(out, "loss_retune", retune_run);
  out << ",\n";
  emit_chaos_run(out, "loss_retune_off", retune_off_run);
  out << ",\n";
  std::snprintf(buf, sizeof(buf),
                "  \"gates\": {\"partition_recovered\": %s, "
                "\"mass_failure_recovered\": %s, \"burst_survived\": %s, "
                "\"undeclared_tripped\": %s, \"retune_survived\": %s, "
                "\"retune_off_tripped\": %s}\n}\n",
                part_ok ? "true" : "false", mass_ok ? "true" : "false",
                burst_ok ? "true" : "false", spike_ok ? "true" : "false",
                retune_ok ? "true" : "false",
                retune_off_ok ? "true" : "false");
  out << buf;

  if (!part_ok) {
    const obs::RecoveryEpisode* e = chaos_episode(part_run, "split");
    std::fprintf(stderr,
                 "error: partition leg failed its recovery gate "
                 "(degraded=%d recovered=%d rounds=%llu budget=%llu "
                 "unrecovered=%zu)\n",
                 e != nullptr && e->degraded, e != nullptr && e->recovered,
                 static_cast<unsigned long long>(
                     e != nullptr ? e->recovery_rounds() : 0),
                 static_cast<unsigned long long>(kPartitionBudget),
                 part_run.unrecovered);
  }
  if (!mass_ok) {
    const obs::RecoveryEpisode* e = chaos_episode(mass_run, "mass-kill");
    std::fprintf(stderr,
                 "error: mass-failure leg failed its recovery gate "
                 "(degraded=%d recovered=%d rounds=%llu budget=%llu "
                 "unrecovered=%zu)\n",
                 e != nullptr && e->degraded, e != nullptr && e->recovered,
                 static_cast<unsigned long long>(
                     e != nullptr ? e->recovery_rounds() : 0),
                 static_cast<unsigned long long>(kMassKillBudget),
                 mass_run.unrecovered);
  }
  if (!burst_ok) {
    const obs::RecoveryEpisode* e = chaos_episode(burst_run, "rack-burst");
    std::fprintf(stderr,
                 "error: burst leg failed its recovery gate (recovered=%d "
                 "rounds=%llu budget=%llu final_lanes=%u unrecovered=%zu)\n",
                 e != nullptr && e->recovered,
                 static_cast<unsigned long long>(
                     e != nullptr ? e->recovery_rounds() : 0),
                 static_cast<unsigned long long>(kBurstBudget),
                 burst_run.final_lanes, burst_run.unrecovered);
  }
  if (!spike_ok) {
    std::fprintf(stderr,
                 "error: undeclared spike failed to trip the monitor "
                 "(violations=%llu undeclared_episode=%d)\n",
                 static_cast<unsigned long long>(spike_run.violations),
                 undeclared != nullptr && undeclared->degraded);
  }
  if (!retune_ok) {
    std::fprintf(stderr,
                 "error: retune leg failed its gate (violations=%llu "
                 "retunes=%zu degree_in_band=%d unrecovered=%zu)\n",
                 static_cast<unsigned long long>(retune_run.violations),
                 retune_run.retunes, retune_run.degree_in_band,
                 retune_run.unrecovered);
  }
  if (!retune_off_ok) {
    std::fprintf(stderr,
                 "error: retune-off leg failed to trip the monitor "
                 "(violations=%llu)\n",
                 static_cast<unsigned long long>(retune_off_run.violations));
  }
  return static_cast<bool>(out) && part_ok && mass_ok && burst_ok &&
         spike_ok && retune_ok && retune_off_ok;
}

// Forensics mode (--forensics): the post-mortem engine gated end to end.
// Three chaos legs whose root cause is known by construction — a declared
// partition, an undeclared 20% mass kill, an undeclared loss spike — each
// run with the full artifact set attached (flight recorder, snapshot
// streamer, chaos-style report JSON, all captured in memory). The
// artifacts then go through the same RunArchive → CausalIndex →
// RootCauseAttributor → report path as `sfgossip analyze`, and the gates
// demand: every incident attributed to the injected cause, zero incidents
// left unknown, the JSON report byte-identical across two renders, and the
// whole analysis inside a wall-clock budget.

struct ForensicsArtifacts {
  std::string trace;      // SFFR dump bytes
  std::string snapshots;  // sfgossip.snapshot/v1 JSONL
  std::string chaos;      // chaos-shaped report JSON
  double run_seconds = 0.0;
};

ForensicsArtifacts run_forensics_leg(sim::RunSpec spec,
                                     const char* scenario_label) {
  spec.recorder_capacity = 1u << 12;
  spec.snapshot_stride = 5;
  spec.keep_snapshots = true;
  sim::FlatRun run(spec);
  ForensicsArtifacts artifacts;
  artifacts.run_seconds = run.run();

  std::ostringstream trace_stream;
  run.recorder()->dump(trace_stream);
  artifacts.trace = trace_stream.str();
  artifacts.snapshots = run.snapshots();

  std::ostringstream chaos_stream;
  chaos_stream << "{\"scenario\": \"" << scenario_label
               << "\", \"recovery\": ";
  run.recovery()->write_json(chaos_stream);
  if (const obs::TheoryOracle* oracle = run.oracle()) {
    chaos_stream << ", \"oracle\": ";
    oracle->write_json(chaos_stream);
  }
  chaos_stream << "}";
  artifacts.chaos = chaos_stream.str();
  return artifacts;
}

struct ForensicsAnalysis {
  bool loaded = false;
  std::size_t incidents = 0;
  std::size_t unknown = 0;
  std::size_t matched = 0;  // incidents attributed to the expected cause
  std::size_t trace_events = 0;
  std::size_t snapshots = 0;
  bool deterministic = false;
  double analyze_seconds = 0.0;
  std::string report;  // the rendered JSON report
  std::string error;
};

ForensicsAnalysis analyze_forensics(const ForensicsArtifacts& artifacts,
                                    const char* expected_cause) {
  namespace fx = obs::forensics;
  ForensicsAnalysis result;
  const auto start = Clock::now();

  fx::RunArchive archive;
  std::istringstream trace_in(artifacts.trace);
  std::istringstream snapshot_in(artifacts.snapshots);
  std::istringstream chaos_in(artifacts.chaos);
  std::string error;
  if (!archive.load_trace(trace_in, &error) ||
      !archive.load_snapshots(snapshot_in, &error) ||
      !archive.load_chaos(chaos_in, &error)) {
    result.error = error;
    return result;
  }
  result.loaded = true;
  result.trace_events = archive.trace().events().size();
  result.snapshots = archive.snapshots().size();

  const fx::CausalIndex index(archive.trace());
  const fx::RootCauseAttributor attributor(archive, &index, {});
  const std::vector<fx::Incident> incidents = attributor.attribute();
  result.incidents = incidents.size();
  result.unknown = fx::unknown_incidents(incidents);
  for (const fx::Incident& incident : incidents) {
    if (std::strcmp(fx::incident_cause_name(incident.cause),
                    expected_cause) == 0) {
      ++result.matched;
    }
  }

  std::ostringstream first;
  fx::write_report_json(first, archive, incidents, nullptr);
  std::ostringstream second;
  fx::write_report_json(second, archive, incidents, nullptr);
  result.report = first.str();
  result.deterministic = first.str() == second.str();
  result.analyze_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

bool emit_forensics_json(bool quick, std::ofstream& out) {
  const std::size_t n = quick ? 2'000 : 4'000;
  // The whole load→index→attribute→render path on one leg's artifacts.
  // Measured ~0.1 s; the budget bounds regressions, not the mean.
  constexpr double kAnalyzeBudgetSeconds = 10.0;

  // Leg 1: the declared partition from the chaos suite — every incident
  // must come back declared-fault.
  sim::RunSpec partition = chaos_leg(n, 480);
  partition.faults.phases.push_back(half_split(n));

  // Leg 2: an *undeclared* 20% mass kill — the tracker opens an undeclared
  // episode and the attributor must pin it on churn (kill flight events
  // when the ring still holds them, the live_nodes gauge drop otherwise).
  // A 20% kill is the boiling-frog regime: the dead references bleed out
  // slower than RecoveryConfig.degree_drop per probe interval, so the
  // chasing calm baseline follows the decay down and the relative dip
  // signal never trips. The absolute degree floor (pinned at the first calm
  // baseline) is what opens the episode here — this leg is its end-to-end
  // regression: drop the floor and the leg fails with zero incidents.
  sim::RunSpec mass = chaos_leg(n, 520);
  mass.kill_fraction = 0.20;
  mass.kill_round = 150;
  mass.declare_faults = false;
  // The floor is pinned at the FIRST post-warmup probe (~25.0 mean, while
  // the overlay is still climbing off its dL-regular install), not at the
  // higher settled mean; the 20% kill bottoms out near 22.7-22.9. 0.93
  // puts the floor at ~23.3: under every calm probe by > 1.5, above the
  // dip trough by ~0.5 at both bench sizes.
  mass.degree_floor_fraction = 0.93;

  // Leg 3: an *undeclared* loss spike after the oracle's statistical
  // warmup — drift violations plus the mirrored episode, all loss-drift.
  sim::RunSpec spike = chaos_leg(n, 520);
  spike.declare_faults = false;
  spike.prediction = sim::theory_prediction(
      default_send_forget_config(), 0.01);
  spike.faults.phases.push_back(loss_spike(440, 480, 0.15, "undeclared-spike"));

  std::printf("forensics: declared-partition leg n=%zu rounds=%zu\n", n,
              partition.rounds);
  const ForensicsArtifacts part_art =
      run_forensics_leg(partition, "bench:declared-partition");
  const ForensicsAnalysis part =
      analyze_forensics(part_art, "declared-fault");
  std::printf("forensics: mass-kill leg n=%zu rounds=%zu kill=%.0f%%@%zu\n",
              n, mass.rounds, mass.kill_fraction * 100.0,
              static_cast<std::size_t>(mass.kill_round));
  const ForensicsArtifacts mass_art =
      run_forensics_leg(mass, "bench:undeclared-mass-kill");
  const ForensicsAnalysis churn =
      analyze_forensics(mass_art, "churn-washout");
  std::printf("forensics: loss-spike leg n=%zu rounds=%zu spike=[440,480) "
              "rate=0.15 (oracle attached)\n",
              n, spike.rounds);
  const ForensicsArtifacts spike_art =
      run_forensics_leg(spike, "bench:undeclared-loss-spike");
  const ForensicsAnalysis drift = analyze_forensics(spike_art, "loss-drift");

  const auto leg_ok = [](const ForensicsAnalysis& a) {
    return a.loaded && a.incidents > 0 && a.unknown == 0 &&
           a.matched == a.incidents && a.deterministic;
  };
  const bool part_ok = leg_ok(part);
  const bool churn_ok = leg_ok(churn);
  const bool drift_ok = leg_ok(drift);
  const bool budget_ok = part.analyze_seconds < kAnalyzeBudgetSeconds &&
                         churn.analyze_seconds < kAnalyzeBudgetSeconds &&
                         drift.analyze_seconds < kAnalyzeBudgetSeconds;

  emit_header(out, "forensics");
  out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"analyze_budget_seconds\": %g,\n",
                kAnalyzeBudgetSeconds);
  out << buf;
  const auto emit_leg = [&out, &buf, n](const char* key,
                                        const sim::RunSpec& spec,
                                        const ForensicsArtifacts& art,
                                        const ForensicsAnalysis& a,
                                        const char* expected) {
    std::snprintf(
        buf, sizeof(buf),
        "  \"%s\": {\n"
        "    \"n\": %zu, \"rounds\": %zu, \"expected_cause\": \"%s\",\n"
        "    \"run_seconds\": %.3f, \"analyze_seconds\": %.4f,\n"
        "    \"trace_events\": %zu, \"snapshots\": %zu, "
        "\"report_bytes\": %zu,\n"
        "    \"incidents\": %zu, \"matched\": %zu, \"unknown\": %zu, "
        "\"deterministic\": %s\n  }",
        key, n, spec.rounds, expected, art.run_seconds, a.analyze_seconds,
        a.trace_events, a.snapshots, a.report.size(), a.incidents,
        a.matched, a.unknown, a.deterministic ? "true" : "false");
    out << buf;
  };
  emit_leg("declared_partition", partition, part_art, part,
           "declared-fault");
  out << ",\n";
  emit_leg("undeclared_mass_kill", mass, mass_art, churn, "churn-washout");
  out << ",\n";
  emit_leg("undeclared_loss_spike", spike, spike_art, drift, "loss-drift");
  out << ",\n";
  std::snprintf(buf, sizeof(buf),
                "  \"gates\": {\"declared_attributed\": %s, "
                "\"churn_attributed\": %s, \"loss_attributed\": %s, "
                "\"analyze_within_budget\": %s}\n}\n",
                part_ok ? "true" : "false", churn_ok ? "true" : "false",
                drift_ok ? "true" : "false", budget_ok ? "true" : "false");
  out << buf;

  const auto report_leg = [](const char* key, const ForensicsAnalysis& a,
                             bool ok) {
    std::printf("forensics %-22s incidents=%zu matched=%zu unknown=%zu "
                "deterministic=%d analyze=%.3fs %s\n",
                key, a.incidents, a.matched, a.unknown, a.deterministic,
                a.analyze_seconds, ok ? "ok" : "FAIL");
    if (!a.error.empty()) {
      std::fprintf(stderr, "error: %s leg: %s\n", key, a.error.c_str());
    }
  };
  report_leg("declared_partition", part, part_ok);
  report_leg("undeclared_mass_kill", churn, churn_ok);
  report_leg("undeclared_loss_spike", drift, drift_ok);
  if (!budget_ok) {
    std::fprintf(stderr, "error: analyzer exceeded its %.1fs budget\n",
                 kAnalyzeBudgetSeconds);
  }
  return static_cast<bool>(out) && part_ok && churn_ok && drift_ok &&
         budget_ok;
}

}  // namespace

// The interleaved gate run: per-repetition, the three legs (bare /
// no-op-counter sink / flight recorder) run back to back, each repetition
// yields one *paired* overhead ratio per gate, and the reported overhead
// is the median of those ratios. Rationale: run-to-run variance on shared
// 1-core hardware is several percent — an order of magnitude above the
// effect being measured — and the noise arrives in bursts (CPU steal,
// frequency phases) that corrupt whole runs, so best-of-N of legs timed
// minutes apart has measured ±5% swings on a pair whose true difference
// is under 1%. Pairing confines a burst to the one repetition it lands
// in; the median then discards that repetition entirely. The per-leg
// throughput results (for the results table) keep each leg's fastest
// repetition. kBare runs first within a repetition: the action count it
// measures (deterministic for fixed n/threads/rounds) seeds the
// no-op-counter leg, which cannot count its own.
// ---------------------------------------------------------------------------
// Arena mode (--arena): the protocol × scenario × loss detection matrix.
// Every cell runs the round-synchronous ArenaDriver with a DetectionTracker
// (and, for S&F, a RecoveryTracker) attached: {S&F, SWIM, all-to-all} ×
// {partition-heal, 20% mass-kill, regional burst} × {ℓ = 0, 0.02, 0.10},
// each leg executed TWICE back to back so the committed baseline proves the
// fingerprint determinism contract, not just asserts it. The gates pin the
// paper's trade: SWIM detects every mass-kill victim at every live observer
// (completeness = 100%) with false positives under budget at ℓ ≤ 0.02,
// while S&F — which buys no acks and no timeouts — must still recover its
// overlay within the same round budgets the chaos baseline commits.

// SWIM false-positive pair-spell budget at gated loss (<= 2%), as a
// multiple of n. FP spells are counted per ordered live (observer,
// subject) pair, and one false suspicion *disseminates*: a single lost
// ack whose indirect probes also fail gossips the suspicion to up to
// n - 1 observers before the refutation catches up. The budget therefore
// admits a few amplified origin events per run — not the thousands of
// pair-spells a wedged detector would rack up (the measured 2% mass-kill
// leg sits near 3n; every spell must also be refuted by the horizon).
constexpr std::uint64_t kArenaSwimFpPerNode = 4;
// Deliberately the BENCH_chaos budgets: the arena's S&F legs must not need
// looser recovery gates than the chaos baseline already commits to.
constexpr std::uint64_t kArenaSfPartitionBudget = 200;
constexpr std::uint64_t kArenaSfMassKillBudget = 360;

struct ArenaSpec {
  const char* protocol = "sf";        // sf | swim | a2a
  const char* scenario = "mass_kill";  // partition_heal|mass_kill|regional_burst
  double loss = 0.0;
  std::size_t n = 0;
  std::size_t rounds = 0;
  sim::FaultSchedule schedule;  // empty for the mass-kill scenario
  double kill_fraction = 0.0;
  std::uint64_t kill_round = 0;
};

struct ArenaRun {
  ArenaSpec spec;
  double seconds = 0.0;
  std::uint64_t actions = 0;
  sim::NetworkMetrics net;
  std::uint64_t fingerprint = 0;
  bool deterministic = false;  // second run reproduced the fingerprint
  std::size_t killed = 0;
  // Detection aggregates (kill side).
  std::size_t events = 0;
  std::size_t complete_events = 0;
  double completeness = 1.0;
  double mean_first_latency = 0.0;
  double mean_last_latency = 0.0;
  std::uint64_t max_last_latency = 0;
  std::uint64_t fp_events = 0;
  std::size_t fp_unresolved = 0;
  // Recovery (S&F legs only).
  std::vector<obs::RecoveryEpisode> episodes;
  std::size_t unrecovered = 0;
};

sim::Cluster::ProtocolFactory arena_factory(const std::string& protocol) {
  if (protocol == "swim") {
    return [](NodeId id) { return std::make_unique<Swim>(id, SwimConfig{}); };
  }
  if (protocol == "a2a") {
    return [](NodeId id) {
      return std::make_unique<AllToAll>(id, AllToAllConfig{});
    };
  }
  return [](NodeId id) {
    return std::make_unique<SendForget>(id, default_send_forget_config());
  };
}

// One arena execution; called twice per leg for the determinism gate.
ArenaRun run_arena_once(const ArenaSpec& spec) {
  ArenaRun run;
  run.spec = spec;
  const bool is_sf = std::strcmp(spec.protocol, "sf") == 0;

  sim::Cluster cluster(spec.n, arena_factory(spec.protocol));
  if (is_sf) {
    // dL-seeded like every S&F bench; the detectors get full membership —
    // SWIM and the heartbeat fan-out track the member table, not a view.
    Rng graph_rng(11 + spec.n);
    const SendForgetConfig cfg = default_send_forget_config();
    cluster.install_graph(
        permutation_regular(spec.n, cfg.min_degree, graph_rng));
  } else {
    std::vector<NodeId> ids(spec.n);
    for (NodeId u = 0; u < spec.n; ++u) ids[u] = u;
    for (NodeId u = 0; u < spec.n; ++u) cluster.node(u).install_view(ids);
  }

  sim::ArenaDriver driver(cluster, sim::ArenaDriverConfig{
                                       .shards = 4,
                                       .threads = 4,
                                       .loss_rate = spec.loss,
                                       .seed = 42});
  const sim::FaultPlane plane(spec.schedule, spec.n, 4);
  if (!spec.schedule.empty()) driver.attach_fault_plane(&plane);

  // The O(n^2) false-positive pair scan runs every 5th probe: spell entry
  // and exit round off by < 5 rounds, which the FP gate does not resolve.
  obs::DetectionTracker detection(obs::DetectionConfig{.fp_stride = 5});
  driver.attach_detection(&detection);

  std::unique_ptr<obs::RecoveryTracker> recovery;
  if (is_sf) {
    const SendForgetConfig cfg = default_send_forget_config();
    recovery = std::make_unique<obs::RecoveryTracker>(obs::RecoveryConfig{
        .min_degree = cfg.min_degree, .view_size = cfg.view_size});
    for (const sim::FaultPhase& p : spec.schedule.phases) {
      recovery->declare_window(p.begin, p.end, p.label);
    }
    if (spec.kill_fraction > 0.0) {
      // Same washout-transient window the chaos mass-kill leg declares.
      recovery->declare_window(spec.kill_round, spec.kill_round + 20,
                               "mass-kill");
    }
    driver.attach_recovery(recovery.get());
  }

  const auto start = Clock::now();
  run.killed = sim::run_with_mass_kill(driver, cluster, spec.rounds,
                                       spec.kill_fraction, spec.kill_round);
  run.seconds = std::chrono::duration<double>(Clock::now() - start).count();

  run.actions = driver.actions_executed();
  run.net = driver.network_metrics();
  run.fingerprint = driver.fingerprint();
  run.events = detection.event_count(true);
  run.complete_events = detection.complete_count(true);
  run.completeness = detection.completeness(true);
  run.mean_first_latency = detection.mean_first_latency(true);
  run.mean_last_latency = detection.mean_last_latency(true);
  run.max_last_latency = detection.max_last_latency(true);
  run.fp_events = detection.fp_events();
  run.fp_unresolved = detection.fp_unresolved();
  if (recovery != nullptr) {
    run.episodes = recovery->episodes();
    run.unrecovered = recovery->unrecovered();
  }
  return run;
}

ArenaRun run_arena_leg(const ArenaSpec& spec) {
  ArenaRun first = run_arena_once(spec);
  const ArenaRun second = run_arena_once(spec);
  first.deterministic = first.fingerprint == second.fingerprint &&
                        first.net.sent == second.net.sent &&
                        first.net.delivered == second.net.delivered &&
                        first.fp_events == second.fp_events;
  return first;
}

const obs::RecoveryEpisode* arena_episode(const ArenaRun& run,
                                          const char* label) {
  for (const obs::RecoveryEpisode& e : run.episodes) {
    if (e.label == label) return &e;
  }
  return nullptr;
}

void emit_arena_leg(std::ofstream& out, const ArenaRun& r, bool last) {
  char buf[640];
  const double msgs_per_action =
      r.actions > 0
          ? static_cast<double>(r.net.sent) / static_cast<double>(r.actions)
          : 0.0;
  std::snprintf(
      buf, sizeof(buf),
      "    {\"protocol\": \"%s\", \"scenario\": \"%s\", \"loss\": %g,\n"
      "     \"n\": %zu, \"rounds\": %zu, \"seconds\": %.3f, "
      "\"killed\": %zu,\n"
      "     \"sent\": %llu, \"delivered\": %llu, \"lost\": %llu, "
      "\"faulted\": %llu, \"to_dead\": %llu,\n"
      "     \"msgs_per_node_round\": %.2f,\n"
      "     \"fingerprint\": \"0x%llx\", \"deterministic\": %s,\n"
      "     \"detection\": {\"events\": %zu, \"complete\": %zu, "
      "\"completeness\": %.4f,\n"
      "       \"mean_first_latency\": %.1f, \"mean_last_latency\": %.1f, "
      "\"max_last_latency\": %llu,\n"
      "       \"fp_events\": %llu, \"fp_unresolved\": %zu}",
      r.spec.protocol, r.spec.scenario, r.spec.loss, r.spec.n, r.spec.rounds,
      r.seconds, r.killed, static_cast<unsigned long long>(r.net.sent),
      static_cast<unsigned long long>(r.net.delivered),
      static_cast<unsigned long long>(r.net.lost),
      static_cast<unsigned long long>(r.net.faulted),
      static_cast<unsigned long long>(r.net.to_dead), msgs_per_action,
      static_cast<unsigned long long>(r.fingerprint),
      r.deterministic ? "true" : "false", r.events, r.complete_events,
      r.completeness, r.mean_first_latency, r.mean_last_latency,
      static_cast<unsigned long long>(r.max_last_latency),
      static_cast<unsigned long long>(r.fp_events), r.fp_unresolved);
  out << buf;
  if (std::strcmp(r.spec.protocol, "sf") == 0) {
    std::snprintf(buf, sizeof(buf), ",\n     \"unrecovered\": %zu, "
                  "\"episodes\": [", r.unrecovered);
    out << buf;
    for (std::size_t i = 0; i < r.episodes.size(); ++i) {
      const obs::RecoveryEpisode& e = r.episodes[i];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"label\": \"%s\", \"degraded\": %s, "
                    "\"recovered\": %s, \"recovery_rounds\": %llu}",
                    i == 0 ? "" : ", ", e.label.c_str(),
                    e.degraded ? "true" : "false",
                    e.recovered ? "true" : "false",
                    static_cast<unsigned long long>(e.recovery_rounds()));
      out << buf;
    }
    out << "]";
  }
  out << "}" << (last ? "\n" : ",\n");
}

bool emit_arena_json(bool quick, std::ofstream& out) {
  const std::size_t n = quick ? 128 : 256;
  const double losses[] = {0.0, 0.02, 0.10};
  const char* protocols[] = {"sf", "swim", "a2a"};

  // The three scenarios, instantiated per (protocol, loss) below.
  const auto make_spec = [n](const char* protocol, const char* scenario,
                             double loss) {
    ArenaSpec spec;
    spec.protocol = protocol;
    spec.scenario = scenario;
    spec.loss = loss;
    spec.n = n;
    // The chaos legs' fault shapes.
    if (std::strcmp(scenario, "partition_heal") == 0) {
      spec.rounds = 480;
      spec.schedule.phases.push_back(half_split(n));
    } else if (std::strcmp(scenario, "mass_kill") == 0) {
      spec.rounds = 520;
      spec.kill_fraction = 0.20;
      spec.kill_round = 150;
    } else {  // regional_burst
      spec.rounds = 420;
      spec.schedule.regions = 4;
      spec.schedule.phases.push_back(rack_burst());
    }
    return spec;
  };

  const char* scenarios[] = {"partition_heal", "mass_kill", "regional_burst"};
  std::vector<ArenaRun> runs;
  for (const char* protocol : protocols) {
    for (const char* scenario : scenarios) {
      for (const double loss : losses) {
        std::printf("arena: %s x %s @ loss=%.2f (n=%zu, two runs)\n",
                    protocol, scenario, loss, n);
        runs.push_back(run_arena_leg(make_spec(protocol, scenario, loss)));
      }
    }
  }

  // Gates over the matrix.
  bool matrix_complete = runs.size() == 27;
  bool deterministic = true;
  bool swim_complete = true;
  bool swim_fp_ok = true;
  bool sf_partition_ok = true;
  bool sf_mass_ok = true;
  for (const ArenaRun& r : runs) {
    if (r.net.sent == 0) matrix_complete = false;
    if (!r.deterministic) deterministic = false;
    const bool gated_loss = r.spec.loss <= 0.02;
    if (std::strcmp(r.spec.protocol, "swim") == 0 &&
        std::strcmp(r.spec.scenario, "mass_kill") == 0 && gated_loss) {
      if (r.events == 0 || r.complete_events != r.events ||
          r.completeness < 1.0) {
        swim_complete = false;
        std::fprintf(stderr,
                     "error: swim mass_kill loss=%g completeness %.4f "
                     "(%zu/%zu events complete)\n",
                     r.spec.loss, r.completeness, r.complete_events,
                     r.events);
      }
      const std::uint64_t fp_budget = kArenaSwimFpPerNode * r.spec.n;
      if (r.fp_events > fp_budget || r.fp_unresolved != 0) {
        swim_fp_ok = false;
        std::fprintf(stderr,
                     "error: swim mass_kill loss=%g fp_events %llu over "
                     "budget %llu (or %zu spells never refuted)\n",
                     r.spec.loss,
                     static_cast<unsigned long long>(r.fp_events),
                     static_cast<unsigned long long>(fp_budget),
                     r.fp_unresolved);
      }
    }
    if (std::strcmp(r.spec.protocol, "sf") == 0 && gated_loss) {
      if (std::strcmp(r.spec.scenario, "partition_heal") == 0) {
        const obs::RecoveryEpisode* e = arena_episode(r, "split");
        if (e == nullptr || !e->degraded || !e->recovered ||
            e->recovery_rounds() > kArenaSfPartitionBudget ||
            r.unrecovered != 0) {
          sf_partition_ok = false;
          std::fprintf(stderr,
                       "error: sf partition_heal loss=%g failed its recovery "
                       "gate (degraded=%d recovered=%d rounds=%llu "
                       "unrecovered=%zu)\n",
                       r.spec.loss, e != nullptr && e->degraded,
                       e != nullptr && e->recovered,
                       static_cast<unsigned long long>(
                           e != nullptr ? e->recovery_rounds() : 0),
                       r.unrecovered);
        }
      } else if (std::strcmp(r.spec.scenario, "mass_kill") == 0) {
        const obs::RecoveryEpisode* e = arena_episode(r, "mass-kill");
        if (e == nullptr || !e->degraded || !e->recovered ||
            e->recovery_rounds() > kArenaSfMassKillBudget ||
            r.unrecovered != 0) {
          sf_mass_ok = false;
          std::fprintf(stderr,
                       "error: sf mass_kill loss=%g failed its recovery gate "
                       "(degraded=%d recovered=%d rounds=%llu "
                       "unrecovered=%zu)\n",
                       r.spec.loss, e != nullptr && e->degraded,
                       e != nullptr && e->recovered,
                       static_cast<unsigned long long>(
                           e != nullptr ? e->recovery_rounds() : 0),
                       r.unrecovered);
        }
      }
    }
  }

  emit_header(out, "arena");
  out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "  \"n\": %zu, \"seed\": 42, \"shards\": 4,\n"
                "  \"budgets\": {\"swim_fp_events\": %llu, "
                "\"sf_partition_rounds\": %llu, "
                "\"sf_mass_kill_rounds\": %llu},\n"
                "  \"legs\": [\n",
                n, static_cast<unsigned long long>(kArenaSwimFpPerNode * n),
                static_cast<unsigned long long>(kArenaSfPartitionBudget),
                static_cast<unsigned long long>(kArenaSfMassKillBudget));
  out << buf;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    emit_arena_leg(out, runs[i], i + 1 == runs.size());
  }
  out << "  ],\n";
  std::snprintf(buf, sizeof(buf),
                "  \"gates\": {\"matrix_complete\": %s, "
                "\"deterministic\": %s, \"swim_complete\": %s, "
                "\"swim_fp_under_budget\": %s, "
                "\"sf_partition_recovered\": %s, "
                "\"sf_mass_kill_recovered\": %s}\n}\n",
                matrix_complete ? "true" : "false",
                deterministic ? "true" : "false",
                swim_complete ? "true" : "false",
                swim_fp_ok ? "true" : "false",
                sf_partition_ok ? "true" : "false",
                sf_mass_ok ? "true" : "false");
  out << buf;
  if (!deterministic) {
    std::fprintf(stderr,
                 "error: at least one arena leg was not bit-identical "
                 "across its two runs\n");
  }
  return static_cast<bool>(out) && matrix_complete && deterministic &&
         swim_complete && swim_fp_ok && sf_partition_ok && sf_mass_ok;
}

struct GateRun {
  std::vector<BenchResult> best;  // fastest repetition per leg
  GateOverheads overheads;        // median paired ratios
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

GateRun gate_overhead_run(std::size_t reps, std::size_t n, std::size_t threads,
                          std::size_t rounds) {
  GateRun gate;
  gate.overheads.ref_n = n;
  // Gate legs keep the seed's single-shard configuration: the instrumented
  // and bare runs then differ only in counting/recording cost, on the same
  // schedule the overhead budgets were originally calibrated against.
  const sim::RunSpec leg = scale_leg(n, threads, threads, rounds);
  // Calibration run: warms caches before any timed pair and supplies the
  // action count (deterministic for fixed n/threads/rounds) that the
  // no-op-counter leg cannot measure for itself.
  BenchResult bare_best = run_sharded(leg, ShardedMode::kBare);
  const std::uint64_t actions = bare_best.actions;

  // One pair block per gate: base and variant strictly back to back, so
  // each ratio compares runs with zero gap between them — even a 2-second
  // separation (a third leg in between) has measured percent-level drift
  // on this hardware.
  BenchResult noop_best;
  BenchResult rec_best;
  const auto keep = [](BenchResult& best, BenchResult r) {
    if (best.driver.empty() || r.actions_per_sec > best.actions_per_sec) {
      best = std::move(r);
    }
  };
  // Each pair: the reference (denominator) mode, then the variant whose
  // slowdown relative to it is the gate value.
  const auto pair_block = [&](ShardedMode ref, BenchResult& ref_best,
                              ShardedMode variant, BenchResult& variant_best) {
    std::vector<double> pcts;
    for (std::size_t i = 0; i < reps; ++i) {
      BenchResult base = run_sharded(leg, ref, actions);
      BenchResult var = run_sharded(leg, variant, actions);
      if (base.actions_per_sec > 0.0 && var.actions_per_sec > 0.0) {
        pcts.push_back(
            100.0 * (1.0 - var.actions_per_sec / base.actions_per_sec));
      }
      keep(ref_best, std::move(base));
      keep(variant_best, std::move(var));
    }
    return median(std::move(pcts));
  };
  // Registry gate: the counted run (bare) measured against the no-op sink.
  gate.overheads.registry_pct = pair_block(
      ShardedMode::kNoopCounters, noop_best, ShardedMode::kBare, bare_best);
  // Recorder gate: recording measured against the counted default.
  gate.overheads.recorder_pct = pair_block(
      ShardedMode::kBare, bare_best, ShardedMode::kRecorder, rec_best);
  gate.best.push_back(std::move(bare_best));
  gate.best.push_back(std::move(noop_best));
  gate.best.push_back(std::move(rec_best));
  return gate;
}

// True when the configure-time git-describe stamp marks an untracked or
// modified tree. The stamp is captured at configure time: a clean rebuild
// after committing is required before regenerating baselines.
bool tree_is_dirty() {
  const std::string git = GOSSIP_GIT_DESCRIBE;
  return git == "unknown" ||
         (git.size() >= 6 && git.compare(git.size() - 6, 6, "-dirty") == 0);
}

// Baseline outputs are the committed BENCH_*.json files the regression gate
// (tools/check_bench.py) validates; ad-hoc output names are exempt from the
// dirty-tree refusal.
bool is_baseline_output(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  return base.rfind("BENCH_", 0) == 0;
}

int main(int argc, char** argv) {
  bool quick = false;
  bool analysis_mode = false;
  bool telemetry_mode = false;
  bool drift_mode = false;
  bool chaos_mode = false;
  bool forensics_mode = false;
  bool arena_mode = false;
  bool allow_dirty = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--scale") == 0) {
      // Scale is the default mode; the explicit flag lets CI name the leg
      // it runs (`bench_report --scale --quick`) without relying on that.
    } else if (std::strcmp(argv[i], "--analysis") == 0) {
      analysis_mode = true;
    } else if (std::strcmp(argv[i], "--telemetry") == 0) {
      telemetry_mode = true;
    } else if (std::strcmp(argv[i], "--drift") == 0) {
      drift_mode = true;
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos_mode = true;
    } else if (std::strcmp(argv[i], "--forensics") == 0) {
      forensics_mode = true;
    } else if (std::strcmp(argv[i], "--arena") == 0) {
      arena_mode = true;
    } else if (std::strcmp(argv[i], "--allow-dirty") == 0) {
      allow_dirty = true;
    } else {
      path = argv[i];
    }
  }
  if (path.empty()) {
    path = telemetry_mode ? "BENCH_telemetry.json"
           : analysis_mode ? "BENCH_analysis.json"
           : drift_mode    ? "BENCH_drift.json"
           : chaos_mode    ? "BENCH_chaos.json"
           : forensics_mode ? "BENCH_forensics.json"
           : arena_mode    ? "BENCH_arena.json"
                           : "BENCH_scale.json";
  }

  if (is_baseline_output(path) && tree_is_dirty()) {
    if (!allow_dirty) {
      std::fprintf(
          stderr,
          "error: refusing to write baseline %s from a dirty tree "
          "(git: %s).\ncommit first and reconfigure so the header records a "
          "clean revision, or pass --allow-dirty for a local experiment.\n",
          path.c_str(), GOSSIP_GIT_DESCRIBE);
      return 2;
    }
    std::fprintf(stderr,
                 "warning: writing baseline %s from a dirty tree (git: %s); "
                 "tools/check_bench.py will reject it if committed.\n",
                 path.c_str(), GOSSIP_GIT_DESCRIBE);
  }

  // Opened before the first leg, so a bad path fails at once instead of
  // after a run of minutes.
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 1;
  }

  if (arena_mode) {
    if (!emit_arena_json(quick, out)) {
      std::fprintf(stderr, "error: arena run failed (%s)\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
    return 0;
  }

  if (forensics_mode) {
    if (!emit_forensics_json(quick, out)) {
      std::fprintf(stderr, "error: forensics run failed (%s)\n",
                   path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
    return 0;
  }

  if (chaos_mode) {
    if (!emit_chaos_json(quick, out)) {
      std::fprintf(stderr, "error: chaos run failed (%s)\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
    return 0;
  }

  if (drift_mode) {
    if (!emit_drift_json(quick, path, out)) {
      std::fprintf(stderr, "error: drift run failed (%s)\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
    return 0;
  }

  if (telemetry_mode) {
    if (!emit_telemetry_json(quick, out)) {
      std::fprintf(stderr, "error: telemetry run failed (%s)\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
    return 0;
  }

  if (analysis_mode) {
    if (!emit_analysis_json(quick, out)) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
    return 0;
  }

  std::vector<BenchResult> results;
  const auto record = [&results](BenchResult r) {
    std::printf("%-22s n=%-8zu shards=%-3zu threads=%zu rounds=%-4zu "
                "%10.3g actions/s rss=%.0f MiB%s%s\n",
                r.driver.c_str(), r.n, r.shards, r.threads, r.rounds,
                r.actions_per_sec, r.rss_mb, r.health.empty() ? "" : " | ",
                r.health.c_str());
    results.push_back(std::move(r));
  };
  const auto batched = [](sim::RunSpec spec) {
    spec.protocol.pairs_per_message = 2;
    return spec;
  };
  // The 10M leg's seeding: circulant install_slot (no Digraph) with
  // first-touch slab init, on 64 shards.
  const auto huge = [](std::size_t n) {
    sim::RunSpec spec = scale_leg(n, 64, 4, 3);
    spec.circulant = true;
    return spec;
  };

  // The registry- and recorder-overhead gate legs run single-threaded
  // (oversubscribed multi-thread timing, common in CI containers, is
  // barrier-scheduling noise, not counting cost) under the paired/median
  // protocol of gate_overhead_run.
  GateOverheads gates;
  if (quick) {
    record(run_sequential(5'000, 50));
    GateRun gate = gate_overhead_run(5, 5'000, 1, 50);
    gates = gate.overheads;
    for (BenchResult& r : gate.best) record(std::move(r));
    // Headline configuration at CI size: many cache-resident shards on one
    // worker, plus the §5 batched-message variant on the same layout.
    record(run_sharded(scale_leg(5'000, 8, 1, 50)));
    record(run_sharded(batched(scale_leg(5'000, 8, 1, 50))));
    record(run_sharded(scale_leg(5'000, 4, 4, 50)));
    record(run_sharded(scale_leg(5'000, 4, 4, 50), ShardedMode::kObserved));
    // The 10M leg's code path (circulant install_slot seeding, first-touch
    // init, run-to-completion at scale) stubbed to a CI-sized n.
    record(run_sharded(huge(100'000)));
  } else {
    record(run_sequential(50'000, 200));
    // Gate legs run 2x the table's round count: a ~2-second timed region
    // averages over the sub-second noise bursts that corrupt shorter runs.
    GateRun gate = gate_overhead_run(7, 50'000, 1, 400);
    gates = gate.overheads;
    for (BenchResult& r : gate.best) record(std::move(r));
    // Headline single-worker leg: 32 logical shards on 1 thread. Each
    // shard's slab slice (~250 KiB) stays L2-resident through its phases;
    // cross-shard messages batch through the frame mailboxes. Gated in
    // check_bench.py at >= 1.5x the seed engine's committed 8.93M a/s.
    record(run_sharded(scale_leg(50'000, 32, 1, 200)));
    record(run_sharded(batched(scale_leg(50'000, 32, 1, 200))));
    record(run_sharded(scale_leg(50'000, 4, 4, 200)));
    record(run_sharded(scale_leg(50'000, 4, 4, 200), ShardedMode::kObserved));
    record(run_sharded(scale_leg(200'000, 4, 4, 100)));
    record(run_sharded(scale_leg(1'000'000, 4, 4, 30)));
    // The 10M-node leg. bytes_per_node is gated <= 220 in check_bench.py —
    // the packed layout budgets ~171 B/node (160 slab + side arrays + live
    // lists).
    record(run_sharded(huge(10'000'000)));
  }
  if (!emit_json(results, out, gates)) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
