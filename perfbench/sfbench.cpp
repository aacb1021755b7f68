// sfbench — one run of one benchmark workload, in a fresh process.
//
//   sfbench --workload NAME --seed N --out-dir DIR [--tiny] [--traced]
//
// Workloads (perfbench/README.md says why each one exists):
//   chaos_ops_50k       `sfgossip chaos` on the partition-then-burst
//                       scenario of examples/scenarios/partition_heal.txt
//                       scaled to n, with the exact theory oracle, recovery
//                       tracker, time series, JSONL snapshot streamer and a
//                       flight recorder dumped to SFFR at the end
//   bare_flat_1m        the flat engine on the sharded driver, no observers
//   simulate_churn_50k  `sfgossip simulate --protocol sf` with joins and
//                       leaves every round, series and watchdog, and a final
//                       health report
//
// Each workload is wired call for call the way tools/sfgossip.cpp wires it,
// through the libraries' public headers only. The run is timed in three
// windows: set-up (everything before the first round), the round loop, and
// finalisation (dumps, streamer finish, health). Correctness checks run
// after the last window and are not timed.
//
// --traced splits the same run into per-layer spans. The sharded driver's
// PhaseProfiler times initiate / drain / barrier inside run_rounds. The
// observers stay attached, so registry binding is unchanged, but the
// driver's observation stride is pushed out of reach and this program calls
// each observer itself between round chunks, one span per call. Observers
// draw no randomness, so the traced run must reproduce the untraced
// fingerprint and verdict exactly. Spans are kept in memory and written to
// DIR/spans.json when the run ends.
//
// --tiny shrinks every workload to a size that runs in well under a second
// (the smoke test). The sharded workloads run one worker thread per shard,
// the CLI default.
//
// Prints one JSON object on stdout: timings, the cluster fingerprint, a
// digest of the observers' verdict, per-layer metrics and named checks.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/prediction.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "core/flat_send_forget.hpp"
#include "core/send_forget.hpp"
#include "graph/graph_gen.hpp"
#include "obs/export/snapshot.hpp"
#include "obs/oracle/flight_recorder.hpp"
#include "obs/oracle/theory_oracle.hpp"
#include "obs/profiler.hpp"
#include "obs/recovery.hpp"
#include "obs/timeseries.hpp"
#include "obs/watchdog.hpp"
#include "sampling/health.hpp"
#include "sim/churn.hpp"
#include "sim/cluster.hpp"
#include "sim/cluster_probe.hpp"
#include "sim/fault_plane.hpp"
#include "sim/loss.hpp"
#include "sim/round_driver.hpp"
#include "sim/sharded_driver.hpp"

#ifndef SFBENCH_BUILD_TYPE
#define SFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SFBENCH_CXX_FLAGS
#define SFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using namespace gossip;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Protocol parameters shared by every workload (the CLI defaults).
constexpr std::size_t kViewSize = 40;
constexpr std::size_t kMinDegree = 18;

// ------------------------------------------------------------------ spans

// In-memory span log. When disabled, span() only runs its body, so the
// untraced run reads no clock beyond the three window boundaries.
class SpanLog {
 public:
  SpanLog(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  // Runs `body` and returns its result. When enabled, the call is recorded
  // as a span nested in the span that is open around it.
  template <class Body>
  decltype(auto) span(const char* name, Body&& body) {
    if (!enabled_) return body();
    const Open open(*this, name);
    return body();
  }

  // Summed duration of every span called `name`.
  [[nodiscard]] double total(std::string_view name) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (name == s.name) sum += s.end_s - s.begin_s;
    }
    return sum;
  }

  // Summed duration of the top-level spans, except those called `skip`.
  [[nodiscard]] double top_level_total(std::string_view skip) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.parent < 0 && skip != s.name) sum += s.end_s - s.begin_s;
    }
    return sum;
  }

  // [{"name":..,"parent":..,"begin_s":..,"end_s":..}, ...]; parent is the
  // index of the enclosing span, -1 at top level.
  void write_json(std::ostream& out) const {
    out << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof line,
                    "%s\n{\"name\":\"%s\",\"parent\":%lld,\"begin_s\":%.9f,"
                    "\"end_s\":%.9f}",
                    i == 0 ? "" : ",", s.name,
                    static_cast<long long>(s.parent), s.begin_s, s.end_s);
      out << line;
    }
    out << "\n]\n";
  }

 private:
  struct Span {
    const char* name;
    std::int64_t parent;
    double begin_s;
    double end_s;
  };
  // Opens a span on construction and closes it on destruction, that is
  // after the body's result has been built.
  class Open {
   public:
    Open(SpanLog& log, const char* name)
        : log_(log), index_(log.spans_.size()), saved_parent_(log.parent_) {
      log.spans_.push_back({name, saved_parent_, log.now(), 0.0});
      log.parent_ = static_cast<std::int64_t>(index_);
    }
    ~Open() {
      log_.parent_ = saved_parent_;
      log_.spans_[index_].end_s = log_.now();
    }
    Open(const Open&) = delete;
    Open& operator=(const Open&) = delete;

   private:
    SpanLog& log_;
    std::size_t index_;
    std::int64_t saved_parent_;
  };

  [[nodiscard]] double now() const {
    return seconds_between(origin_, Clock::now());
  }

  bool enabled_;
  Clock::time_point origin_;
  std::int64_t parent_ = -1;
  std::vector<Span> spans_;
};

// ----------------------------------------------------------------- result

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::string out_dir;
  bool tiny = false;
  bool traced = false;
};

struct RunResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  double final_s = 0.0;
  std::size_t threads = 1;
  std::uint64_t rounds = 0;
  std::uint64_t actions = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t verdict = 0;
  std::string verdict_summary;
  std::vector<std::pair<std::string, double>> layers;
  std::vector<std::pair<std::string, bool>> checks;

  void layer(std::string name, double value) {
    layers.emplace_back(std::move(name), value);
  }
  void check(std::string name, bool ok) {
    checks.emplace_back(std::move(name), ok);
  }
};

// FNV-1a, the same hash the cluster fingerprint uses.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void add(std::string_view s) {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
    add(s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 1099511628211ULL;
  }
  std::uint64_t h_ = 1469598103934665603ULL;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// Per-layer counts every workload reports: link fate and protocol outcome
// ratios from the cumulative counters.
void add_counter_layers(RunResult& r, const obs::CumulativeCounters& c) {
  r.layer("sim.fate.sent", static_cast<double>(c.sent));
  r.layer("sim.fate.lost", static_cast<double>(c.lost));
  r.layer("sim.fate.faulted", static_cast<double>(c.faulted));
  r.layer("sim.fate.to_dead", static_cast<double>(c.to_dead));
  r.layer("sim.fate.delivered_ratio", ratio(c.delivered, c.sent));
  r.layer("core.self_loop_ratio", ratio(c.self_loops, c.actions));
  r.layer("core.duplication_ratio", ratio(c.duplications, c.sent));
  r.layer("core.deletion_ratio", ratio(c.deletions, c.sent));
}

void check_conservation(RunResult& r, const obs::CumulativeCounters& c) {
  r.check("conservation",
          c.sent == c.delivered + c.lost + c.to_dead + c.faulted);
}

// Flat slab bytes per node: n*s 4-byte slots + n 2-byte degrees + n
// liveness bytes, divided by n.
double flat_bytes_per_node(std::size_t view_size) {
  return static_cast<double>(view_size * sizeof(PackedViewEntry) +
                             sizeof(std::uint16_t) + sizeof(std::uint8_t));
}

// Builds the flat overlay the CLI builds: a random dL-out-regular digraph
// from permutations, installed view by view.
void install_overlay(FlatSendForgetCluster& cluster, std::uint64_t seed,
                     SpanLog& log) {
  Digraph g = log.span("graph.overlay_build", [&] {
    Rng graph_rng(seed * 3 + 1);
    return permutation_regular(cluster.size(), kMinDegree, graph_rng);
  });
  log.span("core.install_views", [&] {
    for (NodeId u = 0; u < cluster.size(); ++u) {
      cluster.install_view(u, g.out_neighbors(u));
    }
    g = Digraph();
  });
}

// Phase totals of the driver's profiler, averaged per worker so that
// initiate + drain + barrier of one worker add up to its run_rounds wall
// time; returns that per-worker sum. Imbalance is max over mean of the
// per-shard initiate time.
double add_profiler_layers(RunResult& r, const obs::PhaseProfiler& profiler,
                           std::size_t shards, std::size_t threads) {
  double initiate = 0.0;
  double drain = 0.0;
  double barrier = 0.0;
  double max_initiate = 0.0;
  for (std::size_t s = 0; s < shards; ++s) {
    for (const auto& phase : profiler.shard_totals(s)) {
      const double secs = static_cast<double>(phase.nanos) * 1e-9;
      if (phase.name == "initiate") {
        initiate += secs;
        max_initiate = std::max(max_initiate, secs);
      } else if (phase.name == "drain") {
        drain += secs;
      } else if (phase.name == "barrier_wait") {
        barrier += secs;
      }
    }
  }
  const double workers = static_cast<double>(threads);
  r.layer("sim.sharded.initiate_s", initiate / workers);
  r.layer("sim.sharded.drain_s", drain / workers);
  r.layer("sim.sharded.barrier_wait_s", barrier / workers);
  r.layer("sim.sharded.initiate_imbalance",
          initiate > 0.0 ? max_initiate / (initiate / static_cast<double>(
                                                          shards))
                         : 0.0);
  return (initiate + drain + barrier) / workers;
}

// ------------------------------------------------------------ chaos_ops_50k

// examples/scenarios/partition_heal.txt with its id ranges scaled to n: a
// symmetric half/half partition over [150,170), then a Gilbert-Elliott
// burst on region 2 over [250,275).
std::string chaos_scenario(std::size_t n) {
  const std::size_t half = n / 2;
  std::ostringstream s;
  s << "regions 4\n"
    << "phase partition 150 170 a=0-" << half - 1 << " b=" << half << "-"
    << n - 1 << " mode=symmetric label=split\n"
    << "phase burst 250 275 region=2 rate=0.3 burst_len=8 label=rack2-wifi\n";
  return s.str();
}

RunResult run_chaos(const Options& opt, SpanLog& log,
                    Clock::time_point start) {
  const std::size_t n = opt.tiny ? 2000 : 50'000;
  const std::uint64_t rounds = 420;
  const double loss = 0.01;
  const std::size_t shards = 4;
  const std::uint64_t stride = 5;
  const std::uint64_t warmup = 100;
  const std::uint64_t grace = 40;
  const std::string snapshot_path = opt.out_dir + "/snapshots.jsonl";
  const std::string flight_path = opt.out_dir + "/flight.sffr";
  RunResult r;

  // ---- set-up
  const sim::ScenarioFile scenario = log.span("sim.scenario_parse", [&] {
    std::istringstream text(chaos_scenario(n));
    sim::ScenarioFile parsed;
    std::string error;
    if (!sim::parse_scenario(text, &parsed, &error)) {
      throw std::runtime_error("scenario: " + error);
    }
    return parsed;
  });
  const sim::FaultPlane plane = log.span("sim.fault_plane_build", [&] {
    return sim::FaultPlane(scenario.schedule, n, shards);
  });
  FlatSendForgetCluster cluster = log.span("core.cluster_alloc", [&] {
    return FlatSendForgetCluster(
        n, SendForgetConfig{.view_size = kViewSize, .min_degree = kMinDegree});
  });
  install_overlay(cluster, opt.seed, log);
  sim::ShardedDriver driver = log.span("sim.driver_init", [&] {
    return sim::ShardedDriver(
        cluster, sim::ShardedDriverConfig{
                     .shard_count = shards, .loss_rate = loss,
                     .seed = opt.seed});
  });
  obs::TheoryOracle oracle(log.span("analysis.prediction", [&] {
    analysis::DegreeMcParams dp;
    dp.view_size = kViewSize;
    dp.min_degree = kMinDegree;
    dp.loss = loss;
    return analysis::make_theory_prediction(
        dp, /*delta=*/0.01, analysis::PredictionSource::kExactMc);
  }));

  obs::RoundTimeSeries series(stride);
  obs::RecoveryTracker recovery(obs::RecoveryConfig{
      .min_degree = kMinDegree, .view_size = kViewSize,
      .warmup_rounds = warmup});
  obs::FlightRecorder recorder(shards, 4096);
  log.span("obs.attach", [&] {
    for (const sim::FaultPhase& phase : scenario.schedule.phases) {
      recovery.declare_window(phase.begin, phase.end, phase.label);
      oracle.declare_fault_window(phase.begin, phase.end, grace);
    }
    recovery.attach_series(&series);
    driver.attach_oracle(&oracle);
    driver.attach_time_series(&series);
    driver.attach_fault_plane(&plane);
    driver.attach_flight_recorder(&recorder);
    driver.attach_recovery(&recovery);
  });
  // As in the CLI, the streamer is made after every other observer has
  // registered its gauges.
  obs::SnapshotStreamer streamer(driver.metrics_registry(),
                                 obs::ExportConfig{.snapshot_stride = stride});
  bool sink_ok = false;
  obs::PhaseProfiler profiler(shards);
  log.span("obs.attach_export", [&] {
    auto sink = std::make_unique<obs::JsonlSnapshotSink>(snapshot_path);
    sink_ok = sink->ok();
    streamer.add_sink(std::move(sink));
    driver.attach_streamer(&streamer);
    if (log.enabled()) {
      driver.attach_profiler(&profiler);
      driver.set_observation_stride(std::numeric_limits<std::uint64_t>::max());
    }
  });

  // ---- round loop
  const auto t_loop = Clock::now();
  if (!log.enabled()) {
    driver.run_rounds(rounds);
  } else {
    // ShardedDriver::observe_round, call for call, from outside. The
    // registry writes it does besides the observers are replayed too, so
    // the snapshot stream stays byte-identical.
    obs::MetricsRegistry& registry = driver.metrics_registry();
    const obs::GaugeId live_gauge = registry.gauge("live_nodes");
    const obs::GaugeId round_gauge = registry.gauge("round");
    const obs::GaugeId wrapped_gauge = registry.gauge("recorder_wrapped");
    const obs::HistogramId out_hist = registry.histogram("outdegree", {});
    const obs::HistogramId in_hist = registry.histogram("indegree", {});
    std::vector<std::uint32_t> occurrences;
    std::uint64_t done = 0;
    while (done < rounds) {
      const std::uint64_t chunk =
          std::min(stride - done % stride, rounds - done);
      log.span("sim.run_rounds", [&] { driver.run_rounds(chunk); });
      done += chunk;
      if (done % stride != 0) continue;
      log.span("sim.observe", [&] {
        obs::FlatClusterProbe probe;
        log.span("obs.probe", [&] {
          probe = obs::probe_cluster(cluster, &occurrences);
          registry.set(live_gauge, 0, static_cast<double>(probe.live_nodes));
          registry.set(round_gauge, 0, static_cast<double>(done));
          for (std::size_t d = 0; d < probe.outdegree_hist.size(); ++d) {
            if (probe.outdegree_hist[d] != 0) {
              registry.observe_n(out_hist, 0, static_cast<double>(d),
                                 probe.outdegree_hist[d]);
            }
          }
          for (std::size_t d = 0; d < probe.indegree_hist.size(); ++d) {
            if (probe.indegree_hist[d] != 0) {
              registry.observe_n(in_hist, 0, static_cast<double>(d),
                                 probe.indegree_hist[d]);
            }
          }
        });
        const obs::CumulativeCounters c = driver.cumulative_counters();
        log.span("obs.series", [&] {
          series.record(done, probe.outdegree, probe.indegree,
                        probe.live_nodes, probe.empty_slot_fraction, c);
        });
        log.span("obs.oracle",
                 [&] { oracle.observe(done, probe, occurrences, c); });
        log.span("obs.recovery", [&] {
          recovery.observe(done, probe, &cluster, nullptr,
                           &oracle.monitor());
        });
        log.span("obs.export", [&] {
          for (std::size_t s = 0; s < shards; ++s) {
            registry.set(wrapped_gauge, s,
                         static_cast<double>(recorder.dropped(s)));
          }
          streamer.observe(done);
        });
      });
    }
  }

  // ---- finalisation
  const auto t_final = Clock::now();
  log.span("obs.export_finish", [&] { streamer.finish(); });
  const bool dump_ok = log.span(
      "obs.recorder_dump", [&] { return recorder.dump_to_file(flight_path); });
  const std::string reports = log.span(
      "obs.report", [&] { return recovery.report() + oracle.report(); });
  const auto t_end = Clock::now();

  r.setup_s = seconds_between(start, t_loop);
  r.run_s = seconds_between(t_loop, t_final);
  r.final_s = seconds_between(t_final, t_end);
  r.rounds = rounds;
  r.threads = driver.thread_count();

  // ---- checks and counts (untimed)
  const obs::CumulativeCounters c = driver.cumulative_counters();
  r.actions = c.actions;
  r.fingerprint = cluster.fingerprint();
  check_conservation(r, c);
  obs::InvariantWatchdog watchdog(
      obs::WatchdogConfig{.min_degree = kMinDegree, .view_size = kViewSize});
  watchdog.check_cluster(rounds, cluster, (n + shards - 1) / shards);
  watchdog.check_conservation(rounds, c);
  r.check("watchdog_clean", watchdog.violation_count() == 0);
  r.check("fault_plane_fired", c.faulted > 0);
  // Set-up must time the §6.2 solve, not a hit in the prediction cache.
  const analysis::PredictionCacheStats cache =
      analysis::prediction_cache_stats();
  r.check("prediction_solved", cache.misses == 1 && cache.hits == 0);
  r.check("snapshot_stream_written", sink_ok && streamer.snapshots_taken() ==
                                                    rounds / stride);
  r.check("flight_dump_written", dump_ok);

  const std::string snapshots = read_file(snapshot_path);
  std::ostringstream verdict_json;
  recovery.write_json(verdict_json);
  oracle.write_json(verdict_json);
  Digest verdict;
  verdict.add(verdict_json.str());
  verdict.add(reports);
  verdict.add(snapshots);
  r.verdict = verdict.value();
  r.verdict_summary =
      "unrecovered=" + std::to_string(recovery.unrecovered()) +
      " episodes=" + std::to_string(recovery.episodes().size()) +
      " oracle_violations=" +
      std::to_string(oracle.monitor().violation_transitions());

  add_counter_layers(r, c);
  r.layer("core.bytes_per_node", flat_bytes_per_node(kViewSize));
  r.layer("obs.export_bytes", static_cast<double>(snapshots.size()));
  r.layer("obs.recorder_events",
          static_cast<double>(recorder.total_recorded()));
  if (log.enabled()) {
    const double per_worker =
        add_profiler_layers(r, profiler, shards, driver.thread_count());
    const double observe = log.total("sim.observe");
    r.layer("sim.sharded.observe_s", observe);
    r.layer("sim.sharded.ns_per_action",
            r.run_s * 1e9 / static_cast<double>(c.actions));
    r.layer("obs.probe_s", log.total("obs.probe"));
    r.layer("obs.series_s", log.total("obs.series"));
    r.layer("obs.oracle_s", log.total("obs.oracle"));
    r.layer("obs.recovery_s", log.total("obs.recovery"));
    r.layer("obs.export_s",
            log.total("obs.export") + log.total("obs.export_finish"));
    r.layer("obs.recorder_dump_s", log.total("obs.recorder_dump"));
    r.layer("obs.observe_share", observe / r.run_s);
    r.layer("analysis.prediction_s", log.total("analysis.prediction"));
    r.layer("graph.overlay_build_s", log.total("graph.overlay_build"));
    r.layer("trace.unattributed_s",
            r.setup_s + r.run_s + r.final_s -
                (log.top_level_total("sim.run_rounds") + per_worker));
  }
  return r;
}

// ------------------------------------------------------------- bare_flat_1m

RunResult run_bare(const Options& opt, SpanLog& log,
                   Clock::time_point start) {
  const std::size_t n = opt.tiny ? 20'000 : 1'000'000;
  const std::uint64_t rounds = opt.tiny ? 10 : 40;
  const double loss = 0.02;
  const std::size_t shards = 4;
  RunResult r;

  // ---- set-up
  FlatSendForgetCluster cluster = log.span("core.cluster_alloc", [&] {
    return FlatSendForgetCluster(
        n, SendForgetConfig{.view_size = kViewSize, .min_degree = kMinDegree});
  });
  install_overlay(cluster, opt.seed, log);
  sim::ShardedDriver driver = log.span("sim.driver_init", [&] {
    return sim::ShardedDriver(
        cluster, sim::ShardedDriverConfig{
                     .shard_count = shards, .loss_rate = loss,
                     .seed = opt.seed});
  });
  obs::PhaseProfiler profiler(shards);
  if (log.enabled()) driver.attach_profiler(&profiler);

  // ---- round loop
  const auto t_loop = Clock::now();
  log.span("sim.run_rounds", [&] { driver.run_rounds(rounds); });

  // ---- finalisation: nothing to flush without observers.
  const auto t_end = Clock::now();
  r.setup_s = seconds_between(start, t_loop);
  r.run_s = seconds_between(t_loop, t_end);
  r.rounds = rounds;
  r.threads = driver.thread_count();

  // ---- checks and counts (untimed)
  const obs::CumulativeCounters c = driver.cumulative_counters();
  r.actions = c.actions;
  r.fingerprint = cluster.fingerprint();
  check_conservation(r, c);
  obs::InvariantWatchdog watchdog(
      obs::WatchdogConfig{.min_degree = kMinDegree, .view_size = kViewSize});
  watchdog.check_cluster(rounds, cluster, (n + shards - 1) / shards);
  watchdog.check_conservation(rounds, c);
  r.check("watchdog_clean", watchdog.violation_count() == 0);
  r.check("every_node_initiated_each_round", c.actions == n * rounds);
  r.check("no_fault_drops", c.faulted == 0 && c.to_dead == 0);
  Digest verdict;
  for (const std::uint64_t v : {c.actions, c.self_loops, c.duplications,
                                c.deletions, c.sent, c.lost, c.delivered}) {
    verdict.add(v);
  }
  r.verdict = verdict.value();
  r.verdict_summary = "sent=" + std::to_string(c.sent) +
                      " lost=" + std::to_string(c.lost);

  add_counter_layers(r, c);
  r.layer("core.bytes_per_node", flat_bytes_per_node(kViewSize));
  if (log.enabled()) {
    const double per_worker =
        add_profiler_layers(r, profiler, shards, driver.thread_count());
    r.layer("sim.sharded.ns_per_action",
            r.run_s * 1e9 / static_cast<double>(c.actions));
    r.layer("graph.overlay_build_s", log.total("graph.overlay_build"));
    r.layer("trace.unattributed_s",
            r.setup_s + r.run_s -
                (log.top_level_total("sim.run_rounds") + per_worker));
  }
  return r;
}

// ------------------------------------------------------- simulate_churn_50k

// Hash of the object engine's state: liveness, every view entry with its
// dependence tag, in node and slot order.
std::uint64_t object_fingerprint(const sim::Cluster& cluster) {
  Digest d;
  d.add(cluster.size());
  for (NodeId u = 0; u < cluster.size(); ++u) {
    d.add(cluster.live(u) ? 1u : 0u);
    for (const ViewEntry& e : cluster.node(u).view().entries()) {
      d.add((static_cast<std::uint64_t>(e.id) << 1) | (e.dependent ? 1 : 0));
    }
  }
  return d.value();
}

RunResult run_simulate(const Options& opt, SpanLog& log,
                       Clock::time_point start) {
  const std::size_t n = opt.tiny ? 2000 : 50'000;
  const std::uint64_t rounds = opt.tiny ? 60 : 100;
  const double loss_rate = 0.02;
  const std::uint64_t stride = 10;
  // The CLI's Bernoulli churn fires at most one join and one leave per
  // call; five calls at rate 1 give five of each per round.
  const int churn_calls_per_round = 5;
  RunResult r;

  // ---- set-up
  const SendForgetConfig cfg{.view_size = kViewSize,
                             .min_degree = kMinDegree};
  const sim::Cluster::ProtocolFactory factory = [cfg](NodeId id) {
    return std::make_unique<SendForget>(id, cfg);
  };
  Rng rng(opt.seed);
  sim::Cluster cluster = log.span(
      "core.cluster_alloc", [&] { return sim::Cluster(n, factory); });
  Digraph g = log.span("graph.overlay_build",
                       [&] { return permutation_regular(n, kMinDegree, rng); });
  log.span("core.install_views", [&] {
    cluster.install_graph(g);
    g = Digraph();
  });
  sim::UniformLoss loss(loss_rate);
  sim::ChurnProcess churn(cluster, factory, kMinDegree, 1.0, 1.0,
                          std::max<std::size_t>(8, n / 4));
  obs::RoundTimeSeries series(stride);
  obs::InvariantWatchdog watchdog(
      obs::WatchdogConfig{.min_degree = kMinDegree, .view_size = kViewSize});
  sim::RoundDriver driver(cluster, loss, rng);
  if (!log.enabled()) {
    driver.attach_time_series(&series);
    driver.attach_watchdog(&watchdog);
  }

  // ---- round loop
  const auto t_loop = Clock::now();
  for (std::uint64_t round = 1; round <= rounds; ++round) {
    log.span("sim.churn", [&] {
      for (int k = 0; k < churn_calls_per_round; ++k) churn.maybe_churn(rng);
    });
    log.span("sim.round", [&] { driver.run_rounds(1); });
    if (!log.enabled() || round % stride != 0) continue;
    // RoundDriver::observe_round for a series plus watchdog, from outside.
    log.span("sim.observe", [&] {
      obs::FlatClusterProbe probe;
      obs::CumulativeCounters c;
      log.span("obs.probe", [&] {
        probe = sim::probe_cluster(cluster);
        c = sim::cumulative_counters(cluster.aggregate_metrics(),
                                     driver.network_metrics());
      });
      log.span("obs.series", [&] {
        series.record(round, probe.outdegree, probe.indegree,
                      probe.live_nodes, probe.empty_slot_fraction, c);
      });
      log.span("obs.watchdog", [&] {
        for (NodeId u = 0; u < cluster.size(); ++u) {
          if (!cluster.live(u)) continue;
          watchdog.check_degree(round, u, /*shard=*/0,
                                cluster.node(u).view().degree());
        }
        watchdog.check_conservation(round, c);
        watchdog.check_rates(round, c);
      });
    });
  }

  // ---- finalisation
  const auto t_final = Clock::now();
  const sampling::HealthReport health = log.span("sampling.health", [&] {
    return sampling::measure_health(cluster, /*with_spectral=*/true);
  });
  const std::string reports = log.span(
      "obs.report", [&] { return health.to_string() + watchdog.report(); });
  const auto t_end = Clock::now();

  r.setup_s = seconds_between(start, t_loop);
  r.run_s = seconds_between(t_loop, t_final);
  r.final_s = seconds_between(t_final, t_end);
  r.rounds = rounds;

  // ---- checks and counts (untimed)
  const sim::NetworkMetrics& net = driver.network_metrics();
  const obs::CumulativeCounters c =
      sim::cumulative_counters(cluster.aggregate_metrics(), net);
  r.actions = driver.actions_executed();
  r.fingerprint = object_fingerprint(cluster);
  check_conservation(r, c);
  r.check("watchdog_clean",
          watchdog.checks_run() > 0 && watchdog.violation_count() == 0);
  r.check("churn_applied",
          churn.total_joins() == rounds * churn_calls_per_round &&
              churn.total_leaves() == rounds * churn_calls_per_round);
  r.check("overlay_connected", health.connected);
  std::ostringstream verdict_json;
  series.write_json(verdict_json);
  watchdog.write_json(verdict_json);
  Digest verdict;
  verdict.add(verdict_json.str());
  verdict.add(reports);
  r.verdict = verdict.value();
  r.verdict_summary = "watchdog_checks=" +
                      std::to_string(watchdog.checks_run()) +
                      " violations=" +
                      std::to_string(watchdog.violation_count());

  // The object engine's protocol counters cover live nodes only (a node
  // that leaves takes its history with it); the fate counts are exact.
  add_counter_layers(r, c);
  r.layer("sim.round.joins", static_cast<double>(churn.total_joins()));
  r.layer("sim.round.leaves", static_cast<double>(churn.total_leaves()));
  if (log.enabled()) {
    const double run = log.total("sim.round");
    const double observe = log.total("sim.observe");
    r.layer("sim.round.run_s", run);
    r.layer("sim.round.ns_per_action",
            run * 1e9 / static_cast<double>(r.actions));
    r.layer("sim.round.churn_s", log.total("sim.churn"));
    r.layer("obs.probe_s", log.total("obs.probe"));
    r.layer("obs.series_s", log.total("obs.series"));
    r.layer("obs.watchdog_s", log.total("obs.watchdog"));
    r.layer("obs.observe_share", observe / r.run_s);
    r.layer("graph.overlay_build_s", log.total("graph.overlay_build"));
    r.layer("sampling.health_s", log.total("sampling.health"));
    r.layer("trace.unattributed_s",
            r.setup_s + r.run_s + r.final_s - log.top_level_total(""));
  }
  return r;
}

// ------------------------------------------------------------------ output

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void print_result(const Options& opt, const RunResult& r) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double wall = r.setup_s + r.run_s + r.final_s;
  std::string out = "{";
  out += "\"workload\":" + json_string(opt.workload);
  out += ",\"seed\":" + std::to_string(opt.seed);
  out += ",\"traced\":" + std::string(opt.traced ? "true" : "false");
  out += ",\"threads\":" + std::to_string(r.threads);
  out += ",\"build_type\":" + json_string(SFBENCH_BUILD_TYPE);
  out += ",\"cxx_flags\":" + json_string(SFBENCH_CXX_FLAGS);
  out += ",\"compiler\":" + json_string(__VERSION__);
  out += ",\"rounds\":" + std::to_string(r.rounds);
  out += ",\"actions\":" + std::to_string(r.actions);
  out += ",\"setup_s\":" + json_number(r.setup_s);
  out += ",\"run_s\":" + json_number(r.run_s);
  out += ",\"final_s\":" + json_number(r.final_s);
  out += ",\"wall_s\":" + json_number(wall);
  out += ",\"actions_per_s\":" +
         json_number(static_cast<double>(r.actions) / r.run_s);
  // ru_maxrss is in KiB on Linux.
  out += ",\"peak_rss_mb\":" +
         json_number(static_cast<double>(usage.ru_maxrss) / 1024.0);
  out += ",\"fingerprint\":" + json_string(hex(r.fingerprint));
  out += ",\"verdict\":" + json_string(hex(r.verdict));
  out += ",\"verdict_summary\":" + json_string(r.verdict_summary);
  out += ",\"layers\":{";
  for (std::size_t i = 0; i < r.layers.size(); ++i) {
    if (i != 0) out += ",";
    out += json_string(r.layers[i].first) + ":" +
           json_number(r.layers[i].second);
  }
  out += "},\"checks\":{";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    if (i != 0) out += ",";
    out += json_string(r.checks[i].first) + ":" +
           (r.checks[i].second ? "true" : "false");
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = Clock::now();
  try {
    const ArgParser args(argc, argv);
    Options opt;
    opt.workload = args.get_string("workload", "");
    opt.seed = static_cast<std::uint64_t>(args.get_int(
        "seed", 1, 0, std::numeric_limits<std::int64_t>::max()));
    opt.out_dir = args.get_string("out-dir", "");
    opt.tiny = args.has("tiny");
    opt.traced = args.has("traced");
    if (opt.out_dir.empty()) throw CliError("--out-dir is required");

    SpanLog log(opt.traced, start);
    RunResult result;
    if (opt.workload == "chaos_ops_50k") {
      result = run_chaos(opt, log, start);
    } else if (opt.workload == "bare_flat_1m") {
      result = run_bare(opt, log, start);
    } else if (opt.workload == "simulate_churn_50k") {
      result = run_simulate(opt, log, start);
    } else {
      throw CliError("unknown --workload '" + opt.workload + "'");
    }
    if (opt.traced) {
      std::ofstream spans(opt.out_dir + "/spans.json");
      log.write_json(spans);
    }
    print_result(opt, result);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sfbench: %s\n", e.what());
    return 1;
  }
}
