// sfgossip — command-line front end to the library.
//
//   sfgossip simulate      run a membership overlay and report its health
//   sfgossip degrees       solve the §6.2 degree Markov chain
//   sfgossip thresholds    pick dL and s for a target degree (§6.3)
//   sfgossip decay         leaver-id survival bound curve (§6.5, Fig 6.4)
//   sfgossip connectivity  minimal dL for the §7.4 connectivity condition
//   sfgossip walk          random-walk sampling success under loss (§3.1)
//   sfgossip globalmc      exhaustive global MC for tiny systems (§7.1-7.3)
//   sfgossip plan          Lemma A.1 planner between two graph files
//   sfgossip trace-dump    inspect a flight-recorder dump (simulate
//                          --trace-out, or a drift-violation post-mortem)
//   sfgossip chaos         run a scripted fault scenario on the sharded
//                          driver and report recovery times
//   sfgossip analyze       post-mortem forensics: turn flight dumps +
//                          snapshot streams + chaos reports into
//                          root-caused incident reports
//   sfgossip top           live in-terminal dashboard over a sharded run
//                          (tails the snapshot streamer)
//   sfgossip arena         race failure-detection protocols (S&F washout,
//                          SWIM, all-to-all heartbeats, view-exchange
//                          baselines) through one scenario and compare
//                          overhead and detection quality
//
// Every subcommand accepts --help. Numeric output goes to stdout; pass
// --csv FILE where supported to also write machine-readable series.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "analysis/decay.hpp"
#include "analysis/degree_mc.hpp"
#include "analysis/global_mc.hpp"
#include "analysis/independence.hpp"
#include "analysis/thresholds.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/stats.hpp"
#include "core/baselines/all_to_all.hpp"
#include "core/baselines/newscast.hpp"
#include "core/baselines/push_pull.hpp"
#include "core/baselines/shuffle.hpp"
#include "core/baselines/swim.hpp"
#include "core/send_forget.hpp"
#include "graph/connectivity.hpp"
#include "graph/graph_gen.hpp"
#include "graph/graph_io.hpp"
#include "graph/graph_stats.hpp"
#include "graph/reachability.hpp"
#include "graph/spectral.hpp"
#include "obs/export/snapshot.hpp"
#include "obs/export/trace_export.hpp"
#include "obs/forensics/attribution.hpp"
#include "obs/forensics/causal_index.hpp"
#include "obs/forensics/report.hpp"
#include "obs/forensics/run_archive.hpp"
#include "obs/oracle/flight_recorder.hpp"
#include "obs/timeseries.hpp"
#include "obs/watchdog.hpp"
#include "sampling/random_walk.hpp"
#include "sampling/health.hpp"
#include "sampling/spatial.hpp"
#include "obs/detection.hpp"
#include "obs/recovery.hpp"
#include "sim/arena_driver.hpp"
#include "sim/churn.hpp"
#include "sim/cluster.hpp"
#include "sim/cluster_probe.hpp"
#include "sim/event_driver.hpp"
#include "sim/fault_plane.hpp"
#include "sim/round_driver.hpp"
#include "sim/run.hpp"

#ifndef GOSSIP_GIT_DESCRIBE
#define GOSSIP_GIT_DESCRIBE "unknown"
#endif

namespace {

using namespace gossip;

int usage() {
  std::fprintf(stderr,
               "usage: sfgossip <simulate|degrees|thresholds|decay|"
               "connectivity|walk|globalmc|plan|trace-dump|chaos|analyze|"
               "top|arena> [options]\n"
               "run 'sfgossip <command> --help' for options.\n");
  return 2;
}

// ------------------------------------------------------------- simulate

// The --retune mode: a flat S&F overlay on the sharded driver with the
// theory oracle watching and the §6.3 controller closing the loop. The
// oracle is primed through the exact §6.2 solve, the solver the controller
// re-solves with, and an optional scripted loss spike
// demonstrates the retune: the controller re-estimates ℓ̂, installs a
// compliant dL, and the run ends with zero drift violations.
int cmd_simulate_retune(const ArgParser& args) {
  sim::RunSpec spec;
  spec.nodes = args.get_size("nodes", 2000, 64, 10'000'000);
  spec.rounds = args.get_size("rounds", 1200, 1, 10'000'000);
  spec.loss = args.get_double("loss", 0.01, 0.0, 0.99);
  spec.protocol.view_size = args.get_size("view-size", 40, 6, 512);
  spec.protocol.min_degree = args.get_size("min-degree", 18, 2, 506);
  spec.shards = args.get_size("shards", 2, 1, 64);
  spec.stride = args.get_size("metrics-stride", 5, 1, 100'000);
  spec.oracle_warmup = args.get_size("warmup", 300, 0, 10'000'000);
  const auto spike_begin = args.get_size("spike-begin", 400, 0, 10'000'000);
  const auto spike_end = args.get_size("spike-end", 0, 0, 10'000'000);
  const double spike_rate = args.get_double("spike-rate", 0.12, 0.0, 0.99);
  spec.seed = static_cast<std::uint64_t>(
      args.get_int("seed", 1, 0, std::numeric_limits<std::int64_t>::max()));
  spec.graph_seed = spec.seed * 3 + 1;
  spec.protocol.validate();

  // The spike is not declared: the oracle has to notice it, and the
  // controller has to answer it.
  if (spike_rate > 0.0 && spike_begin < spec.rounds) {
    sim::FaultPhase spike;
    spike.kind = sim::FaultKind::kLossSpike;
    spike.begin = spike_begin;
    spike.end = spike_end == 0 ? spec.rounds + 1 : spike_end;
    spike.rate = spike_rate;
    spike.label = "loss-spike";
    spec.faults.phases.push_back(spike);
  }
  spec.declare_faults = false;
  spec.prediction = sim::theory_prediction(spec.protocol, spec.loss);
  spec.retune = true;
  spec.json_out = args.get_string("json", "");
  sim::FlatRun run(spec);

  std::printf("simulating %zu nodes x %zu rounds, loss=%.3f, protocol=sf, "
              "driver=sharded(%zu), retune=on\n",
              spec.nodes, spec.rounds, spec.loss, spec.shards);
  if (!spec.faults.empty()) {
    std::printf("%s", run.fault_plane().describe().c_str());
  }

  run.run();

  const sim::NetworkMetrics net = run.driver().network_metrics();
  std::printf("network: %llu sent, %llu lost, %llu fault-dropped\n",
              static_cast<unsigned long long>(net.sent),
              static_cast<unsigned long long>(net.lost),
              static_cast<unsigned long long>(net.faulted));
  std::printf("%s", run.oracle()->report().c_str());
  std::printf("%s", run.retune()->report().c_str());

  if (!spec.json_out.empty()) {
    std::ostream& out = run.json();
    out << "{\n  \"tool\": \"sfgossip\",\n  \"schema_version\": 1,\n"
        << "  \"git\": \"" << GOSSIP_GIT_DESCRIBE << "\",\n  \"oracle\": ";
    run.oracle()->write_json(out);
    out << ",\n  \"retune\": ";
    run.retune()->write_json(out);
    out << "\n}\n";
    std::printf("wrote %s\n", spec.json_out.c_str());
  }
  // Healthy means the controller kept every drift lane out of VIOLATION.
  return run.oracle()->monitor().violation_transitions() == 0 ? 0 : 1;
}

constexpr const char* kSimulateUsage =
    "sfgossip simulate [options]\n"
    "  --nodes N         system size                  (default 1000)\n"
    "  --rounds R        gossip rounds                (default 300)\n"
    "  --loss L          message loss rate            (default 0.01)\n"
    "  --view-size S     view slots s                 (default 40)\n"
    "  --min-degree D    duplication threshold dL     (default 18)\n"
    "  --protocol P      sf|sfext|shuffle|pushpull|newscast (default sf)\n"
    "  --driver D        round|event                  (default round)\n"
    "  --join-rate X     expected joins per round     (default 0)\n"
    "  --leave-rate Y    expected leaves per round    (default 0)\n"
    "  --seed S          RNG seed                     (default 1)\n"
    "  --csv FILE        write the degree histogram as CSV\n"
    "  --dump FILE       write the final membership graph\n"
    "  --metrics-out F   write round time-series (+ watchdog report for\n"
    "                    sf/sfext): .csv ext = series CSV, else JSON\n"
    "  --metrics-stride N  rounds between samples     (default 10)\n"
    "  --trace-out FILE  record protocol events in a flight-recorder\n"
    "                    ring and dump it at the end (read it back with\n"
    "                    'sfgossip trace-dump FILE')\n"
    "  --trace-capacity N  ring capacity, rounded to a power of two\n"
    "                    (default 32768; the ring keeps the LAST N)\n"
    "  --perfetto-out F  render the flight-recorder ring as Chrome-trace\n"
    "                    JSON loadable in ui.perfetto.dev (implies a\n"
    "                    recorder; honors --trace-capacity)\n"
    "  --snapshot-out F  stream delta-encoded registry snapshots as\n"
    "                    JSONL while the run progresses\n"
    "  --prom-out FILE   rewrite a Prometheus text exposition at each\n"
    "                    snapshot (textfile-collector style)\n"
    "  --snapshot-stride N  rounds between snapshots   (default 10)\n"
    "  --retune          close the loop: sharded sf run with the theory\n"
    "                    oracle attached and the §6.3 controller re-\n"
    "                    solving dL (exact §6.2 solve) under loss\n"
    "                    drift; defaults to a sustained 12% spike from\n"
    "                    round 400 (exit 1 on any drift VIOLATION)\n"
    "    --shards T        worker shards              (default 2)\n"
    "    --warmup W        oracle warmup rounds       (default 300)\n"
    "    --spike-begin R   spike start round          (default 400)\n"
    "    --spike-end R     spike end round            (default: run end)\n"
    "    --spike-rate X    spiked loss rate           (default 0.12)\n"
    "    --json FILE       write oracle + retune JSON\n";

int cmd_simulate(const ArgParser& args) {
  if (args.has("retune")) {
    if (args.get_string("protocol", "sf") != "sf") {
      throw CliError("--retune drives the flat S&F engine (--protocol sf)");
    }
    return cmd_simulate_retune(args);
  }
  const auto nodes = args.get_size("nodes", 1000, 8, 1'000'000);
  const auto rounds = args.get_size("rounds", 300, 1, 1'000'000);
  const double loss_rate = args.get_double("loss", 0.01, 0.0, 0.99);
  const auto view_size = args.get_size("view-size", 40, 6, 512);
  const auto min_degree = args.get_size("min-degree", 18, 0, 506);
  const auto protocol = args.get_string("protocol", "sf");
  const auto driver_kind = args.get_string("driver", "round");
  const double join_rate = args.get_double("join-rate", 0.0, 0.0, 10.0);
  const double leave_rate = args.get_double("leave-rate", 0.0, 0.0, 10.0);
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", 1, 0, std::numeric_limits<std::int64_t>::max()));

  sim::Cluster::ProtocolFactory factory;
  if (protocol == "sf") {
    const SendForgetConfig cfg{.view_size = view_size,
                               .min_degree = min_degree};
    cfg.validate();
    factory = [cfg](NodeId id) {
      return std::make_unique<SendForget>(id, cfg);
    };
  } else if (protocol == "sfext") {
    const SendForgetConfig cfg{.view_size = view_size,
                               .min_degree = min_degree,
                               .mark_instead_of_clear = true};
    cfg.validate();
    factory = [cfg](NodeId id) {
      return std::make_unique<SendForget>(id, cfg);
    };
  } else if (protocol == "shuffle") {
    factory = [view_size](NodeId id) {
      return std::make_unique<Shuffle>(
          id, ShuffleConfig{.view_size = view_size, .shuffle_length = 4});
    };
  } else if (protocol == "pushpull") {
    factory = [view_size](NodeId id) {
      return std::make_unique<PushPullKeep>(
          id, PushPullConfig{.view_size = view_size, .exchange_length = 4});
    };
  } else if (protocol == "newscast") {
    factory = [view_size](NodeId id) {
      return std::make_unique<Newscast>(
          id, NewscastConfig{.view_size = view_size});
    };
  } else {
    throw CliError("unknown --protocol '" + protocol + "'");
  }

  Rng rng(seed);
  sim::Cluster cluster(nodes, factory);
  // S&F nodes join at outdegree exactly dL (§6.5), which also starts the
  // overlay inside the Obs 5.1 envelope; other protocols keep the generic
  // quarter-view seed.
  const std::size_t init_degree =
      (protocol == "sf" || protocol == "sfext") && min_degree >= 2
          ? std::min(min_degree / 2 * 2, (nodes - 2) / 2 * 2)
          : std::max<std::size_t>(2,
                                  std::min(view_size / 4, nodes / 2) / 2 * 2);
  cluster.install_graph(permutation_regular(nodes, init_degree, rng));
  sim::UniformLoss loss(loss_rate);

  std::unique_ptr<sim::ChurnProcess> churn;
  if (join_rate > 0.0 || leave_rate > 0.0) {
    churn = std::make_unique<sim::ChurnProcess>(
        cluster, factory, std::max<std::size_t>(2, min_degree), join_rate,
        leave_rate, std::max<std::size_t>(8, nodes / 4));
  }

  std::unique_ptr<obs::RoundTimeSeries> series;
  std::unique_ptr<obs::InvariantWatchdog> watchdog;
  if (args.has("metrics-out")) {
    const auto stride = args.get_size("metrics-stride", 10, 1, 1'000'000);
    series = std::make_unique<obs::RoundTimeSeries>(stride);
    // Obs 5.1 and the Lemma 6.6/6.7 rate bounds only constrain plain S&F;
    // baselines (and sfext's mark-instead-of-clear) are exempt.
    if (protocol == "sf") {
      watchdog = std::make_unique<obs::InvariantWatchdog>(obs::WatchdogConfig{
          .min_degree = min_degree, .view_size = view_size});
    }
  }

  // The recorder rides either driver's network (events land on its single
  // shard); the ring keeps the last --trace-capacity events.
  std::unique_ptr<obs::FlightRecorder> recorder;
  if (args.has("trace-out") || args.has("perfetto-out")) {
    const auto capacity =
        args.get_size("trace-capacity", 1u << 15, 64, 1u << 24);
    recorder = std::make_unique<obs::FlightRecorder>(1, capacity);
  }

  // Streaming export. The serial drivers own no metrics registry, so the
  // streamer borrows a standalone single-shard one fed entirely through
  // capture-time probes; the driver only drives the capture clock.
  std::unique_ptr<obs::MetricsRegistry> export_registry;
  std::unique_ptr<obs::SnapshotStreamer> streamer;
  if (args.has("snapshot-out") || args.has("prom-out")) {
    obs::ExportConfig ecfg;
    ecfg.snapshot_stride = args.get_size("snapshot-stride", 10, 1, 1'000'000);
    export_registry = std::make_unique<obs::MetricsRegistry>(1);
    streamer =
        std::make_unique<obs::SnapshotStreamer>(*export_registry, ecfg);
    sim::add_snapshot_sinks(*streamer, args.get_string("snapshot-out", ""),
                            args.get_string("prom-out", ""));
    streamer->add_counter_probe("actions", [&cluster]() {
      return cluster.aggregate_metrics().actions_initiated;
    });
    streamer->add_counter_probe("duplications", [&cluster]() {
      return cluster.aggregate_metrics().duplications;
    });
    streamer->add_counter_probe("deletions", [&cluster]() {
      return cluster.aggregate_metrics().deletions;
    });
    streamer->add_gauge_probe("live_nodes", [&cluster]() {
      return static_cast<double>(cluster.live_count());
    });
    streamer->add_gauge_probe("outdegree_mean", [&cluster]() {
      return sim::probe_cluster(cluster).outdegree.mean;
    });
    streamer->add_gauge_probe("indegree_mean", [&cluster]() {
      return sim::probe_cluster(cluster).indegree.mean;
    });
    if (recorder) {
      obs::FlightRecorder* rec = recorder.get();
      streamer->add_gauge_probe("recorder_wrapped", [rec]() {
        return static_cast<double>(rec->dropped(0));
      });
    }
  }

  std::printf("simulating %zu nodes x %zu rounds, loss=%.3f, protocol=%s, "
              "driver=%s\n",
              nodes, rounds, loss_rate, protocol.c_str(),
              driver_kind.c_str());

  // Both serial drivers take the same observers; the streamer also counts
  // the driver's network totals.
  const auto attach_observers = [&](auto& driver) {
    driver.attach_time_series(series.get());
    driver.attach_watchdog(watchdog.get());
    driver.attach_flight_recorder(recorder.get());
    if (!streamer) return;
    const sim::NetworkMetrics& nm = driver.network_metrics();
    streamer->add_counter_probe("sent", [&nm]() { return nm.sent; });
    streamer->add_counter_probe("lost", [&nm]() { return nm.lost; });
    streamer->add_counter_probe("delivered", [&nm]() { return nm.delivered; });
    streamer->add_counter_probe("to_dead", [&nm]() { return nm.to_dead; });
    driver.attach_streamer(streamer.get());
  };
  if (driver_kind == "round") {
    sim::RoundDriver driver(cluster, loss, rng);
    attach_observers(driver);
    for (std::size_t r = 0; r < rounds; ++r) {
      if (churn) churn->maybe_churn(rng);
      driver.run_rounds(1);
    }
    std::printf("network: %llu sent, %llu lost (%.3f)\n",
                static_cast<unsigned long long>(driver.network_metrics().sent),
                static_cast<unsigned long long>(driver.network_metrics().lost),
                driver.network_metrics().loss_rate());
  } else if (driver_kind == "event") {
    sim::EventDriver driver(cluster, loss, rng);
    attach_observers(driver);
    for (std::size_t r = 0; r < rounds; ++r) {
      if (churn) {
        const auto outcome = churn->maybe_churn(rng);
        if (outcome.joined != kNilNode) driver.start_node(outcome.joined);
      }
      driver.run_rounds(1);
    }
    std::printf("network: %llu sent, %llu lost (%.3f)\n",
                static_cast<unsigned long long>(driver.network_metrics().sent),
                static_cast<unsigned long long>(driver.network_metrics().lost),
                driver.network_metrics().loss_rate());
  } else {
    throw CliError("unknown --driver '" + driver_kind + "'");
  }

  const auto overlay = cluster.snapshot();
  const auto report = sampling::measure_health(cluster, /*with_spectral=*/true);

  std::printf("\nlive nodes:            %zu of %zu\n", report.live,
              report.nodes);
  std::printf("outdegree mean/sd:     %.2f / %.2f\n", report.out_mean,
              report.out_sd);
  std::printf("indegree  mean/sd:     %.2f / %.2f\n", report.in_mean,
              report.in_sd);
  std::printf("weakly connected:      %s\n", report.connected ? "yes" : "NO");
  std::printf("duplication rate:      %.4f\n", report.duplication_rate);
  std::printf("dependent entries:     %.4f\n", report.dependent_fraction);
  std::printf("dead references:       %.4f\n",
              report.dead_reference_fraction);
  if (report.spectral_gap > 0.0) {
    std::printf("spectral gap:          %.4f\n", report.spectral_gap);
  }
  if (churn) {
    std::printf("churn:                 %zu joins, %zu leaves\n",
                churn->total_joins(), churn->total_leaves());
  }

  if (args.has("dump")) {
    const auto path = args.get_string("dump", "");
    save_graph(overlay, path);
    std::printf("wrote %s\n", path.c_str());
  }
  if (args.has("csv")) {
    const auto path = args.get_string("csv", "");
    std::ofstream out(path);
    if (!out) throw CliError("cannot open '" + path + "' for writing");
    const auto out_h = out_degree_histogram(overlay);
    const auto in_h = in_degree_histogram(overlay);
    const std::size_t top = std::max(out_h.max_value(), in_h.max_value());
    std::vector<double> axis;
    std::vector<double> outs;
    std::vector<double> ins;
    for (std::size_t d = 0; d <= top; ++d) {
      axis.push_back(static_cast<double>(d));
      outs.push_back(static_cast<double>(out_h.count(d)));
      ins.push_back(static_cast<double>(in_h.count(d)));
    }
    write_csv_series(out, {"degree", "outdegree_count", "indegree_count"},
                     {axis, outs, ins});
    std::printf("wrote %s\n", path.c_str());
  }
  if (series) {
    const auto path = args.get_string("metrics-out", "");
    std::ofstream out(path);
    if (!out) throw CliError("cannot open '" + path + "' for writing");
    const bool as_csv =
        path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
    if (as_csv) {
      series->write_csv(out);
    } else {
      out << "{\n  \"tool\": \"sfgossip\",\n  \"schema_version\": 1,\n"
          << "  \"git\": \"" << GOSSIP_GIT_DESCRIBE << "\",\n  \"series\": ";
      series->write_json(out);
      if (watchdog) {
        out << ",\n  \"watchdog\": ";
        watchdog->write_json(out);
      }
      out << "\n}\n";
    }
    std::printf("wrote %s (%zu samples)\n", path.c_str(),
                series->samples().size());
    if (watchdog) std::printf("%s", watchdog->report().c_str());
  }
  if (recorder && args.has("trace-out")) {
    const auto path = args.get_string("trace-out", "");
    if (!recorder->dump_to_file(path)) {
      throw CliError("cannot write trace '" + path + "'");
    }
    const std::uint64_t kept =
        recorder->recorded(0) - recorder->dropped(0);
    std::printf("wrote %s (%llu events kept, %llu overwritten)\n",
                path.c_str(), static_cast<unsigned long long>(kept),
                static_cast<unsigned long long>(recorder->dropped(0)));
  }
  if (recorder && args.has("perfetto-out")) {
    const auto path = args.get_string("perfetto-out", "");
    obs::TraceExporter exporter;
    exporter.add_recorder(*recorder);
    if (!exporter.write_file(path)) {
      throw CliError("cannot write trace '" + path + "'");
    }
    std::printf("wrote %s (chrome-trace; load in ui.perfetto.dev)\n",
                path.c_str());
  }
  if (streamer) {
    streamer->finish();
    std::printf("streamed %llu snapshot(s)\n",
                static_cast<unsigned long long>(streamer->snapshots_taken()));
  }
  return 0;
}

// -------------------------------------------------------------- degrees

constexpr const char* kDegreesUsage =
    "sfgossip degrees [options] — solve the degree Markov chain (§6.2)\n"
    "  --view-size S   (default 40)   --min-degree D (default 18)\n"
    "  --loss L        (default 0)    --fixed-sum DM (Fig 6.1 mode)\n"
    "  --csv FILE      write both pmfs as CSV\n";

int cmd_degrees(const ArgParser& args) {
  analysis::DegreeMcParams params;
  params.view_size = args.get_size("view-size", 40, 6, 512);
  params.min_degree = args.get_size("min-degree", 18, 0, 506);
  params.loss = args.get_double("loss", 0.0, 0.0, 0.99);
  if (args.has("fixed-sum")) {
    params.fixed_sum_degree = args.get_size("fixed-sum", 0, 2, 512);
  }
  const auto result = analysis::solve_degree_mc(params);
  std::printf("states=%zu converged=%d (outer iterations: %zu)\n",
              result.states.size(), result.converged ? 1 : 0,
              result.fixed_point_iterations);
  std::printf("E[outdegree]=%.3f  E[indegree]=%.3f\n", result.expected_out,
              result.expected_in);
  std::printf("P(duplication)=%.5f  P(deletion)=%.5f  (dup - loss - del = "
              "%.2e, Lemma 6.6)\n",
              result.duplication_probability, result.deletion_probability,
              result.duplication_probability - params.loss -
                  result.deletion_probability);
  if (args.has("csv")) {
    const auto path = args.get_string("csv", "");
    std::ofstream out(path);
    if (!out) throw CliError("cannot open '" + path + "' for writing");
    const std::size_t top =
        std::max(result.out_pmf.size(), result.in_pmf.size());
    std::vector<double> axis;
    std::vector<double> outs;
    std::vector<double> ins;
    for (std::size_t d = 0; d < top; ++d) {
      axis.push_back(static_cast<double>(d));
      outs.push_back(d < result.out_pmf.size() ? result.out_pmf[d] : 0.0);
      ins.push_back(d < result.in_pmf.size() ? result.in_pmf[d] : 0.0);
    }
    write_csv_series(out, {"degree", "outdegree_pmf", "indegree_pmf"},
                     {axis, outs, ins});
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

// ----------------------------------------------------------- thresholds

constexpr const char* kThresholdsUsage =
    "sfgossip thresholds --target-degree D [--delta X]\n";

int cmd_thresholds(const ArgParser& args) {
  const auto target = args.get_size("target-degree", 30, 2, 1000);
  const double delta = args.get_double("delta", 0.01, 1e-9, 0.49);
  const auto sel = analysis::select_thresholds(target, delta);
  std::printf("d_hat=%zu delta=%g  ->  dL=%zu s=%zu\n", target, delta,
              sel.min_degree, sel.view_size);
  std::printf("P(d <= dL)=%.5f  P(d >= s)=%.5f  E[d]=%.1f\n",
              sel.prob_at_or_below_min, sel.prob_at_or_above_max,
              sel.expected_out);
  return 0;
}

// ---------------------------------------------------------------- decay

constexpr const char* kDecayUsage =
    "sfgossip decay [--view-size S] [--min-degree D] [--loss L]\n"
    "               [--delta X] [--rounds R] [--csv FILE]\n";

int cmd_decay(const ArgParser& args) {
  analysis::DecayParams params{
      .view_size = args.get_size("view-size", 40, 1, 512),
      .min_degree = args.get_size("min-degree", 18, 0, 512),
      .loss = args.get_double("loss", 0.01, 0.0, 0.99),
      .delta = args.get_double("delta", 0.01, 0.0, 0.99)};
  const auto rounds = args.get_size("rounds", 500, 1, 1'000'000);
  const auto curve = analysis::leave_survival_bound(params, rounds);
  std::printf("survival factor per round: %.6f\n", analysis::survival_factor(params));
  std::printf("half-life (rounds):        %zu\n",
              analysis::rounds_until_survival_below(params, 0.5));
  std::printf("joiner integration window: %.1f rounds, creating >= %.3f*Din "
              "instances\n",
              analysis::joiner_integration_rounds(params),
              analysis::joiner_instances_fraction(params));
  if (args.has("csv")) {
    const auto path = args.get_string("csv", "");
    std::ofstream out(path);
    if (!out) throw CliError("cannot open '" + path + "' for writing");
    std::vector<double> axis;
    for (std::size_t r = 0; r < curve.size(); ++r) {
      axis.push_back(static_cast<double>(r));
    }
    write_csv_series(out, {"round", "survival_bound"}, {axis, curve});
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

// --------------------------------------------------------- connectivity

constexpr const char* kConnectivityUsage =
    "sfgossip connectivity [--loss L] [--delta X] [--epsilon E]\n";

int cmd_connectivity(const ArgParser& args) {
  const double loss_rate = args.get_double("loss", 0.01, 0.0, 0.49);
  const double delta = args.get_double("delta", 0.01, 0.0, 0.49);
  const double epsilon = args.get_double("epsilon", 1e-30, 1e-300, 0.999);
  const double alpha =
      analysis::independence_lower_bound_simple(loss_rate, delta);
  std::printf("alpha = 1 - 2(loss+delta) = %.4f\n", alpha);
  std::printf("minimal dL for P(<3 independent neighbors) <= %g: %zu\n",
              epsilon, analysis::min_degree_for_connectivity(alpha, epsilon));
  return 0;
}

// ----------------------------------------------------------------- walk

constexpr const char* kWalkUsage =
    "sfgossip walk [--nodes N] [--length L] [--loss X] [--trials T]\n";

int cmd_walk(const ArgParser& args) {
  const auto nodes = args.get_size("nodes", 1000, 8, 100'000);
  const auto length = args.get_size("length", 10, 1, 10'000);
  const double loss_rate = args.get_double("loss", 0.05, 0.0, 0.99);
  const auto trials = args.get_size("trials", 10'000, 1, 100'000'000);

  Rng rng(7);
  sim::Cluster cluster(nodes, [](NodeId id) {
    return std::make_unique<SendForget>(id, default_send_forget_config());
  });
  cluster.install_graph(
      permutation_regular(nodes, 10, rng));
  {
    sim::UniformLoss mix(0.01);
    sim::RoundDriver driver(cluster, mix, rng);
    driver.run_rounds(200);
  }
  sim::UniformLoss loss(loss_rate);
  sampling::RandomWalkSampler sampler(
      cluster, loss, sampling::RandomWalkConfig{.walk_length = length});
  for (std::size_t i = 0; i < trials; ++i) {
    sampler.sample(static_cast<NodeId>(i % nodes), rng);
  }
  std::printf("walks: %llu attempted, %llu completed (%.4f; predicted "
              "(1-l)^(L+1) = %.4f)\n",
              static_cast<unsigned long long>(sampler.stats().attempted),
              static_cast<unsigned long long>(sampler.stats().completed),
              sampler.stats().success_rate(),
              sampling::walk_success_probability(length, true, loss_rate));
  return 0;
}

// ------------------------------------------------------------- globalmc

constexpr const char* kGlobalmcUsage =
    "sfgossip globalmc [--nodes N (2-4)] [--view-size S] "
    "[--min-degree D]\n"
    "                  [--loss L] [--init-degree K] [--max-states M]\n"
    "builds the exhaustive global Markov chain over membership graphs\n"
    "and reports the paper's structural lemma checks.\n";

int cmd_globalmc(const ArgParser& args) {
  const auto n = args.get_size("nodes", 3, 2, 5);
  analysis::GlobalMcParams params;
  params.config.view_size = args.get_size("view-size", 6, 6, 16);
  params.config.min_degree = args.get_size("min-degree", 0, 0, 8);
  params.config.validate();
  params.loss = args.get_double("loss", 0.0, 0.0, 0.99);
  params.max_states = args.get_size("max-states", 500'000, 100, 5'000'000);
  const auto k = args.get_size("init-degree", 2, 1, 6);
  Digraph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t j = 1; j <= k; ++j) {
      g.add_edge(u, static_cast<NodeId>((u + j) % n));
    }
  }
  params.initial = std::move(g);
  const auto r = analysis::build_global_mc(params);
  std::printf("states: %zu (%s), transitions: %zu\n", r.states.size(),
              r.exploration_complete ? "complete" : "CAPPED",
              r.chain.transition_count());
  if (!r.exploration_complete) return 1;
  std::printf("irreducible (Lemma 7.1/A.2):       %s\n",
              r.strongly_connected ? "yes" : "NO");
  if (r.stationary.converged) {
    std::printf("stationary converged:              yes (%zu iterations)\n",
                r.stationary.iterations);
    std::printf("uniformity dev (all states):       %.3g\n",
                r.uniformity_deviation);
    std::printf("uniformity dev (simple states):    %.3g over %zu states\n",
                r.simple_state_uniformity_deviation, r.simple_state_count);
    std::printf("edge-presence spread (Lemma 7.6):  %.3g\n",
                r.edge_presence_spread);
  }
  return 0;
}

// ----------------------------------------------------------------- plan

constexpr const char* kPlanUsage =
    "sfgossip plan FROM.graph TO.graph [--view-size S] [--emit FILE]\n"
    "plans a Lemma A.1 move sequence transforming FROM into TO\n"
    "(same node count and sum-degree vectors required; files in the\n"
    "membership-graph v1 format written by 'simulate --dump').\n";

int cmd_plan(const ArgParser& args) {
  if (args.positional().size() < 2) {
    std::fputs(kPlanUsage, stdout);
    return 2;
  }
  const Digraph from = load_graph(args.positional()[0]);
  const Digraph to = load_graph(args.positional()[1]);
  std::size_t max_out = 0;
  for (NodeId u = 0; u < from.node_count(); ++u) {
    max_out = std::max({max_out, from.out_degree(u), to.out_degree(u)});
  }
  graph_ops::TransformLimits limits{
      .view_size = args.get_size("view-size", max_out + 8, max_out + 2, 4096),
      .min_degree = 0};
  const auto moves = graph_ops::plan_transformation(from, to, limits);
  if (args.has("emit")) {
    const auto path = args.get_string("emit", "");
    std::ofstream out(path);
    if (!out) throw CliError("cannot open '" + path + "' for writing");
    out << graph_ops::serialize_moves(moves);
    std::printf("wrote %s\n", path.c_str());
  }
  std::size_t exchanges = 0;
  for (const auto& move : moves) {
    if (move.kind == graph_ops::Move::Kind::kEdgeExchange) ++exchanges;
  }
  Digraph work = from;
  graph_ops::apply_moves(work, moves, limits);
  std::printf("plan: %zu moves (%zu exchanges, %zu borrows); replay %s\n",
              moves.size(), exchanges, moves.size() - exchanges,
              work == to ? "reproduces TO exactly" : "FAILED");
  return work == to ? 0 : 1;
}

// ----------------------------------------------------------- trace-dump

constexpr const char* kTraceDumpUsage =
    "sfgossip trace-dump FILE [options] — inspect a flight-recorder "
    "dump\n"
    "  --message ID    only the lifecycle of one message id (0x.. ok)\n"
    "  --node N        only events naming node N (actor or peer)\n"
    "  --limit K       print at most K events        (default 100)\n"
    "  --json          machine-readable output (one JSON object; the\n"
    "                  same filters and limit apply)\n"
    "FILE is a dump written by 'simulate --trace-out', 'chaos\n"
    "--trace-out', or by the TheoryOracle on a drift violation\n"
    "(bench_report --drift).\n";

int cmd_trace_dump(const ArgParser& args) {
  if (args.positional().empty()) {
    std::fputs(kTraceDumpUsage, stdout);
    return 2;
  }
  const std::string path = args.positional()[0];
  const bool json = args.has("json");
  obs::FlightTrace trace;
  if (!trace.load_file(path)) {
    throw CliError("cannot load trace '" + path + "': " + trace.last_error());
  }
  const std::uint64_t dropped = trace.total_dropped();
  if (!json) {
    std::printf("%s: %zu shards, %zu events kept, %llu overwritten\n",
                path.c_str(), trace.shard_count(), trace.events().size(),
                static_cast<unsigned long long>(dropped));
  }

  std::vector<obs::FlightEvent> selected;
  std::string filter_kind = "none";
  std::uint64_t filter_value = 0;
  if (args.has("message")) {
    const auto id_str = args.get_string("message", "0");
    const std::uint64_t id = std::strtoull(id_str.c_str(), nullptr, 0);
    if (id == 0) throw CliError("--message needs a nonzero id");
    selected = trace.message_lifecycle(id);
    filter_kind = "message";
    filter_value = id;
    if (!json) {
      std::printf("message 0x%llx: %zu events (origin shard %zu)\n",
                  static_cast<unsigned long long>(id), selected.size(),
                  obs::FlightRecorder::message_shard(id));
    }
  } else if (args.has("node")) {
    const auto node = static_cast<NodeId>(
        args.get_size("node", 0, 0, std::numeric_limits<NodeId>::max()));
    selected = trace.node_history(node);
    filter_kind = "node";
    filter_value = node;
    if (!json) {
      std::printf("node %llu: %zu events\n",
                  static_cast<unsigned long long>(node), selected.size());
    }
  } else {
    selected = trace.events();
  }

  const auto limit = args.get_size("limit", 100, 1, 100'000'000);
  const std::size_t shown = std::min<std::size_t>(limit, selected.size());
  // With no filter and a full ring the interesting part is the end (the
  // ring keeps the most recent events), so print the tail.
  const std::size_t start = selected.size() - shown;

  if (json) {
    // Message ids go out as hex strings: shard 32+ pushes them past 2^53,
    // where JSON number consumers lose bits.
    std::printf("{\"schema\":\"sfgossip.trace\",\"version\":1,"
                "\"shards\":%zu,\"events_kept\":%zu,\"dropped\":%llu,"
                "\"filter\":{\"kind\":\"%s\",\"value\":%llu},"
                "\"selected\":%zu,\"elided\":%zu,\"events\":[",
                trace.shard_count(), trace.events().size(),
                static_cast<unsigned long long>(dropped), filter_kind.c_str(),
                static_cast<unsigned long long>(filter_value),
                selected.size(), start);
    for (std::size_t i = start; i < selected.size(); ++i) {
      const obs::FlightEvent& e = selected[i];
      std::printf("%s{\"round\":%u,\"shard\":%u,\"kind\":\"%s\"",
                  i == start ? "" : ",", e.round,
                  static_cast<unsigned>(e.shard),
                  obs::flight_event_kind_name(e.kind));
      if (e.message_id != 0) {
        std::printf(",\"message\":\"0x%llx\"",
                    static_cast<unsigned long long>(e.message_id));
      }
      if (e.node != kNilNode) {
        std::printf(",\"node\":%llu",
                    static_cast<unsigned long long>(e.node));
      }
      if (e.peer != kNilNode) {
        std::printf(",\"peer\":%llu",
                    static_cast<unsigned long long>(e.peer));
      }
      std::printf("}");
    }
    std::printf("]}\n");
    return 0;
  }

  if (start > 0) std::printf("... %zu earlier events elided ...\n", start);
  for (std::size_t i = start; i < selected.size(); ++i) {
    std::printf("%s\n", obs::FlightTrace::format_event(selected[i]).c_str());
  }
  return 0;
}

// ---------------------------------------------------------------- chaos

// Every --option the named subcommand reads (its commands() entry).
const std::vector<std::string_view>& command_options(std::string_view name);

// The run options chaos, top and arena share. Each is read from its flag,
// else from the scenario's config line of the same name ("key value"),
// else from the subcommand's default. A scenario value gets the flag's
// range check, and its error names the file:line.
class RunOptions {
 public:
  // Loads --scenario when given. A config line whose key is not an option
  // of `command` is an error naming its file:line, as an unknown flag is.
  RunOptions(const ArgParser& args, std::string_view command) : args_(args) {
    if (!args.has("scenario")) return;
    const std::string path = args.get_string("scenario", "");
    std::string error;
    if (!sim::load_scenario_file(path, &scenario_, &error)) {
      throw CliError("cannot load scenario '" + path + "': " + error);
    }
    const std::vector<std::string_view>& keys = command_options(command);
    for (const sim::ScenarioConfigEntry& entry : scenario_.config) {
      if (std::find(keys.begin(), keys.end(), entry.key) == keys.end()) {
        throw CliError(scenario_.path + ":" + std::to_string(entry.line) +
                       ": unknown scenario key '" + entry.key + "'");
      }
    }
  }

  [[nodiscard]] const sim::ScenarioFile& scenario() const { return scenario_; }

  [[nodiscard]] std::size_t size(const char* key, std::size_t fallback,
                                 std::size_t lo, std::size_t hi) const {
    return read<std::size_t>(key, [&](const ArgParser& in) {
      return in.get_size(key, fallback, lo, hi);
    });
  }
  [[nodiscard]] double real(const char* key, double fallback, double lo,
                            double hi) const {
    return read<double>(key, [&](const ArgParser& in) {
      return in.get_double(key, fallback, lo, hi);
    });
  }

 private:
  template <class T, class Get>
  T read(const char* key, Get get) const {
    if (!args_.has(key)) {
      for (const sim::ScenarioConfigEntry& entry : scenario_.config) {
        if (entry.key != key) continue;
        try {
          return get(ArgParser({"--" + std::string(key) + "=" + entry.value}));
        } catch (const CliError& e) {
          throw CliError(scenario_.path + ":" + std::to_string(entry.line) +
                         ": " + e.what());
        }
      }
    }
    return get(args_);
  }

  const ArgParser& args_;
  sim::ScenarioFile scenario_;
};

// Each subcommand's defaults and upper bounds for the shared options.
struct RunDefaults {
  std::size_t nodes = 0;
  std::size_t max_nodes = 0;
  double loss = 0.0;
  std::size_t shards = 0;
  std::size_t stride = 0;
  std::size_t max_rounds = 0;
};

// The shared options as a RunSpec: size, protocol, driver, seed and
// faults. Rounds default to the last heal + 200, or 400 with no faults.
sim::RunSpec read_run_spec(const RunOptions& in, const RunDefaults& d) {
  const sim::FaultSchedule& faults = in.scenario().schedule;
  sim::RunSpec spec;
  spec.nodes = in.size("nodes", d.nodes, 64, d.max_nodes);
  spec.rounds = in.size("rounds", faults.empty() ? 400 : faults.last_end() + 200,
                        1, d.max_rounds);
  spec.loss = in.real("loss", d.loss, 0.0, 0.99);
  spec.protocol.view_size = in.size("view-size", 40, 6, 512);
  spec.protocol.min_degree = in.size("min-degree", 18, 2, 506);
  spec.shards = in.size("shards", d.shards, 1, 64);
  spec.seed = in.size("seed", 1, 0, 1'000'000'000);
  spec.graph_seed = spec.seed * 3 + 1;
  spec.stride = in.size("stride", d.stride, 1, 100'000);
  spec.faults = faults;
  return spec;
}

constexpr const char* kChaosUsage =
    "sfgossip chaos --scenario FILE [options]\n"
    "Runs the scripted fault schedule in FILE on the sharded driver and\n"
    "reports per-window recovery times (see DESIGN.md §5d; a sample\n"
    "scenario ships in examples/scenarios/partition_heal.txt).\n"
    "  --scenario FILE   fault schedule + config (required)\n"
    "  --nodes N         system size                  (default 5000)\n"
    "  --rounds R        total rounds     (default: last heal + 200)\n"
    "  --loss L          ambient loss rate            (default 0.01)\n"
    "  --view-size S     view slots s                 (default 40)\n"
    "  --min-degree D    duplication threshold dL     (default 18)\n"
    "  --shards T        worker shards                (default 4)\n"
    "  --seed S          RNG seed                     (default 1)\n"
    "  --stride N        rounds between probes        (default 5)\n"
    "  --warmup W        tracker warmup rounds        (default 100)\n"
    "  --oracle          attach the theory oracle; scripted windows are\n"
    "                    declared (drift accounted, not escalated)\n"
    "  --grace G         post-heal oracle grace rounds (default 40)\n"
    "  --snapshot-out F  stream delta-encoded registry snapshots (JSONL)\n"
    "  --prom-out FILE   rewrite a Prometheus text exposition per\n"
    "                    snapshot\n"
    "  --snapshot-stride N  rounds between snapshots (default: stride)\n"
    "  --trace-out FILE  attach the flight recorder and dump the SFFR\n"
    "                    ring at the end (for 'sfgossip analyze')\n"
    "  --trace-capacity N  per-shard ring capacity     (default 4096)\n"
    "  --json FILE       write series + annotations + recovery JSON\n"
    "Scenario config lines (nodes, rounds, loss, view-size, min-degree,\n"
    "shards, seed, stride, warmup, grace) set defaults; flags override.\n";

int cmd_chaos(const ArgParser& args) {
  if (!args.has("scenario")) {
    std::fputs(kChaosUsage, stdout);
    return 2;
  }
  const RunOptions in(args, "chaos");
  const std::string scenario_path = args.get_string("scenario", "");
  if (in.scenario().schedule.empty()) {
    throw CliError("scenario '" + scenario_path + "' declares no phases");
  }
  sim::RunSpec spec = read_run_spec(
      in, {.nodes = 5000, .max_nodes = 1'000'000, .loss = 0.01, .shards = 4,
           .stride = 5, .max_rounds = 10'000'000});
  spec.recovery_warmup = in.size("warmup", 100, 0, 1'000'000);
  spec.grace = in.size("grace", 40, 0, 1'000'000);
  spec.protocol.validate();
  spec.series = true;
  spec.recovery = true;
  if (args.has("oracle")) {
    spec.prediction = sim::theory_prediction(spec.protocol, spec.loss);
  }
  // A deeper default ring than the recorder's cache-resident 512: chaos
  // post-mortems want the whole fault window, and a one-shot chaos run is
  // not a perf gate.
  if (args.has("trace-out")) {
    spec.recorder_capacity = args.get_size("trace-capacity", 4096, 8, 1u << 24);
    spec.trace_out = args.get_string("trace-out", "");
  }
  // The streamer borrows the driver's own registry, so chaos snapshots
  // carry the native shard counters plus the oracle drift and recovery
  // gauges.
  if (args.has("snapshot-out") || args.has("prom-out")) {
    spec.snapshot_stride =
        args.get_size("snapshot-stride", spec.stride, 1, 1'000'000);
    spec.snapshot_out = args.get_string("snapshot-out", "");
    spec.prom_out = args.get_string("prom-out", "");
  }
  spec.json_out = args.get_string("json", "");
  sim::FlatRun run(spec);

  std::printf("chaos: %zu nodes x %zu rounds, loss=%.3f, %zu shard(s), "
              "seed=%llu\n%s",
              spec.nodes, spec.rounds, spec.loss, spec.shards,
              static_cast<unsigned long long>(spec.seed),
              run.fault_plane().describe().c_str());

  run.run();

  const sim::NetworkMetrics net = run.driver().network_metrics();
  std::printf("network: %llu sent, %llu lost, %llu fault-dropped\n",
              static_cast<unsigned long long>(net.sent),
              static_cast<unsigned long long>(net.lost),
              static_cast<unsigned long long>(net.faulted));
  obs::RecoveryTracker& recovery = *run.recovery();
  obs::TheoryOracle* oracle = run.oracle();
  std::printf("%s", recovery.report().c_str());
  if (oracle) std::printf("%s", oracle->report().c_str());
  if (run.streamer()) {
    std::printf("streamed %llu snapshot(s)\n",
                static_cast<unsigned long long>(
                    run.streamer()->snapshots_taken()));
  }
  if (run.recorder()) {
    std::printf("dumped %llu flight event(s) to %s\n",
                static_cast<unsigned long long>(
                    run.recorder()->total_recorded()),
                spec.trace_out.c_str());
  }

  if (!spec.json_out.empty()) {
    std::ostream& out = run.json();
    out << "{\n  \"tool\": \"sfgossip\",\n  \"schema_version\": 1,\n"
        << "  \"git\": \"" << GOSSIP_GIT_DESCRIBE << "\",\n"
        << "  \"scenario\": \"" << scenario_path << "\",\n  \"series\": ";
    run.series()->write_json(out);
    out << ",\n  \"annotations\": ";
    run.series()->write_annotations_json(out);
    out << ",\n  \"recovery\": ";
    recovery.write_json(out);
    if (oracle) {
      out << ",\n  \"oracle\": ";
      oracle->write_json(out);
    }
    out << "\n}\n";
    std::printf("wrote %s\n", spec.json_out.c_str());
  }
  // Exit status mirrors the run's health: 1 when any declared window never
  // recovered or an undeclared excursion is still open.
  return recovery.unrecovered() == 0 ? 0 : 1;
}

// ---------------------------------------------------------------- arena

// One contender in the protocol arena: a named factory plus how its
// membership state is seeded (S&F and the view-exchange baselines get a
// dL-regular overlay; the failure detectors get the full member table).
struct ArenaContender {
  std::string name;
  sim::Cluster::ProtocolFactory factory;
  bool full_membership = false;
  bool track_recovery = false;  // S&F only: the dL/s band is its contract
};

ArenaContender make_contender(const std::string& name, std::size_t view_size,
                              std::size_t min_degree) {
  ArenaContender c;
  c.name = name;
  if (name == "sf") {
    const SendForgetConfig cfg{.view_size = view_size,
                               .min_degree = min_degree};
    cfg.validate();
    c.factory = [cfg](NodeId id) {
      return std::make_unique<SendForget>(id, cfg);
    };
    c.track_recovery = true;
  } else if (name == "swim") {
    c.factory = [](NodeId id) {
      return std::make_unique<Swim>(id, SwimConfig{});
    };
    c.full_membership = true;
  } else if (name == "a2a") {
    c.factory = [](NodeId id) {
      return std::make_unique<AllToAll>(id, AllToAllConfig{});
    };
    c.full_membership = true;
  } else if (name == "shuffle") {
    ShuffleConfig cfg;
    cfg.view_size = view_size;
    c.factory = [cfg](NodeId id) {
      return std::make_unique<Shuffle>(id, cfg);
    };
  } else if (name == "pushpull") {
    PushPullConfig cfg;
    cfg.view_size = view_size;
    c.factory = [cfg](NodeId id) {
      return std::make_unique<PushPullKeep>(id, cfg);
    };
  } else if (name == "newscast") {
    NewscastConfig cfg;
    cfg.view_size = view_size;
    c.factory = [cfg](NodeId id) {
      return std::make_unique<Newscast>(id, cfg);
    };
  } else {
    throw CliError("unknown protocol '" + name +
                   "' (sf|swim|a2a|shuffle|pushpull|newscast)");
  }
  return c;
}

// Races the named protocols through one scenario — same node count, same
// fault schedule, same ambient loss, same seed — on the ArenaDriver's
// deterministic round clock, and compares message overhead against
// detection quality. The committed BENCH_arena.json matrix is the gated
// version of this command (tools/bench_report --arena).
constexpr const char* kArenaUsage =
    "sfgossip arena [--scenario FILE] [options]\n"
    "Runs each protocol through the same scenario on the deterministic\n"
    "arena round clock (one-round delivery latency) and reports message\n"
    "overhead vs detection quality (see DESIGN.md 'Protocol arena').\n"
    "  --scenario FILE   fault schedule + config     (default: none)\n"
    "  --protocols LIST  comma list: sf,swim,a2a,shuffle,pushpull,\n"
    "                    newscast                    (default sf,swim,a2a)\n"
    "  --nodes N         system size                 (default 256)\n"
    "  --rounds R        total rounds  (default: last heal + 200, or 400)\n"
    "  --loss L          ambient loss rate           (default 0.02)\n"
    "  --kill-fraction F fraction killed at --kill-round (default 0)\n"
    "  --kill-round R    kill round                  (default 150)\n"
    "  --view-size S     view slots s (sf + baselines, default 40)\n"
    "  --min-degree D    duplication threshold dL    (default 18)\n"
    "  --shards T        determinism shards          (default 4)\n"
    "  --threads W       worker threads              (default: shards)\n"
    "  --seed S          RNG seed                    (default 1)\n"
    "  --stride N        rounds between observations (default 1)\n"
    "  --json FILE       write the comparison as JSON\n"
    "Scenario config lines (nodes, rounds, loss, kill-fraction,\n"
    "kill-round, view-size, min-degree, shards, threads, seed, stride)\n"
    "set defaults; flags override. Kills are reported to the detection\n"
    "tracker; completeness counts only observers that believed the\n"
    "victim alive, and S&F's passive washout shows up as kUnknown\n"
    "verdicts (no false confirmations, no timetable).\n";

int cmd_arena(const ArgParser& args) {
  const RunOptions in(args, "arena");
  const std::string scenario_path = args.get_string("scenario", "");
  const sim::RunSpec spec = read_run_spec(
      in, {.nodes = 256, .max_nodes = 8192, .loss = 0.02, .shards = 4,
           .stride = 1, .max_rounds = 1'000'000});
  const std::size_t nodes = spec.nodes;
  const std::size_t view_size = spec.protocol.view_size;
  const std::size_t min_degree = spec.protocol.min_degree;
  const double kill_fraction = in.real("kill-fraction", 0.0, 0.0, 0.9);
  const std::size_t kill_round = in.size("kill-round", 150, 1, 1'000'000);
  const std::size_t threads = in.size("threads", spec.shards, 1, 64);

  std::vector<ArenaContender> contenders;
  {
    std::stringstream list(args.get_string("protocols", "sf,swim,a2a"));
    std::string name;
    while (std::getline(list, name, ',')) {
      if (!name.empty()) {
        contenders.push_back(make_contender(name, view_size, min_degree));
      }
    }
  }
  if (contenders.empty()) throw CliError("--protocols names no protocols");

  const sim::FaultPlane plane(spec.faults, nodes, spec.shards);
  std::printf("arena: %zu nodes x %zu rounds, loss=%.3f, %zu shard(s), "
              "seed=%llu\n%s",
              nodes, spec.rounds, spec.loss,
              spec.shards, static_cast<unsigned long long>(spec.seed),
              plane.describe().c_str());
  if (kill_fraction > 0.0) {
    std::printf("churn: %.0f%% killed at round %zu\n", kill_fraction * 100.0,
                kill_round);
  }

  std::ofstream json;
  if (args.has("json")) {
    json = sim::open_output(args.get_string("json", ""));
    json << "{\n  \"tool\": \"sfgossip\",\n  \"schema_version\": 1,\n"
         << "  \"git\": \"" << GOSSIP_GIT_DESCRIBE << "\",\n"
         << "  \"scenario\": \""
         << (scenario_path.empty() ? "(none)" : scenario_path)
         << "\",\n  \"protocols\": [\n";
  }

  std::printf(
      "\n%-9s %12s %10s %9s %9s %9s %9s %11s\n", "protocol", "sent",
      "msgs/n/r", "complete", "t_first", "t_last", "fp", "fingerprint");
  for (std::size_t ci = 0; ci < contenders.size(); ++ci) {
    const ArenaContender& c = contenders[ci];
    sim::Cluster cluster(nodes, c.factory);
    if (c.full_membership) {
      std::vector<NodeId> ids(nodes);
      for (NodeId u = 0; u < nodes; ++u) ids[u] = u;
      for (NodeId u = 0; u < nodes; ++u) cluster.node(u).install_view(ids);
    } else {
      Rng graph_rng(spec.graph_seed);
      cluster.install_graph(permutation_regular(nodes, min_degree, graph_rng));
    }

    sim::ArenaDriver driver(
        cluster, sim::ArenaDriverConfig{.shards = spec.shards,
                                        .threads = threads,
                                        .loss_rate = spec.loss,
                                        .seed = spec.seed});
    driver.set_observation_stride(spec.stride);
    if (!spec.faults.empty()) driver.attach_fault_plane(&plane);
    obs::DetectionTracker detection(obs::DetectionConfig{.fp_stride = 5});
    driver.attach_detection(&detection);
    std::unique_ptr<obs::RecoveryTracker> recovery;
    if (c.track_recovery) {
      recovery = std::make_unique<obs::RecoveryTracker>(obs::RecoveryConfig{
          .min_degree = min_degree, .view_size = view_size});
      for (const sim::FaultPhase& phase : spec.faults.phases) {
        recovery->declare_window(phase.begin, phase.end, phase.label);
      }
      if (kill_fraction > 0.0) {
        recovery->declare_window(kill_round, kill_round + 20, "mass-kill");
      }
      driver.attach_recovery(recovery.get());
    }

    const std::size_t killed = sim::run_with_mass_kill(
        driver, cluster, spec.rounds, kill_fraction, kill_round);

    const sim::NetworkMetrics net = driver.network_metrics();
    const std::uint64_t actions = driver.actions_executed();
    const double mpnr =
        actions > 0
            ? static_cast<double>(net.sent) / static_cast<double>(actions)
            : 0.0;
    char fp_label[32];
    std::snprintf(fp_label, sizeof(fp_label), "%llu/%zu",
                  static_cast<unsigned long long>(detection.fp_events()),
                  detection.fp_unresolved());
    std::printf("%-9s %12llu %10.2f %8.1f%% %9.1f %9.1f %9s %011llx\n",
                c.name.c_str(), static_cast<unsigned long long>(net.sent),
                mpnr, detection.completeness(true) * 100.0,
                detection.mean_first_latency(true),
                detection.mean_last_latency(true), fp_label,
                static_cast<unsigned long long>(driver.fingerprint()));
    if (recovery) std::printf("%s", recovery->report().c_str());

    if (json.is_open()) {
      json << "    {\"protocol\": \"" << c.name << "\", \"sent\": "
           << net.sent << ", \"delivered\": " << net.delivered
           << ", \"lost\": " << net.lost << ", \"faulted\": " << net.faulted
           << ", \"to_dead\": " << net.to_dead << ",\n     \"killed\": "
           << killed << ", \"msgs_per_node_round\": " << mpnr
           << ", \"fingerprint\": \"" << std::hex << driver.fingerprint()
           << std::dec << "\",\n     \"detection\": ";
      detection.write_json(json);
      if (recovery) {
        json << ",\n     \"recovery\": ";
        recovery->write_json(json);
      }
      json << "}" << (ci + 1 == contenders.size() ? "\n" : ",\n");
    }
  }
  if (json.is_open()) {
    json << "  ]\n}\n";
    std::printf("wrote %s\n", args.get_string("json", "").c_str());
  }
  return 0;
}

// -------------------------------------------------------------- analyze

// Post-mortem forensics: load a run's artifacts (flight dump, snapshot
// stream, chaos report), attribute every incident to a root cause, and
// render the incident report. Exit 1 when any incident stays unknown —
// the artifacts do not explain the run, which is itself a finding.
constexpr const char* kAnalyzeUsage =
    "sfgossip analyze [options] — root-cause a run from its artifacts\n"
    "  --trace FILE       SFFR flight dump  (chaos/simulate --trace-out)\n"
    "  --snapshots FILE   sfgossip.snapshot/v1 JSONL stream\n"
    "  --chaos FILE       chaos --json report (episodes + oracle)\n"
    "  --baseline-snapshots FILE  second stream to diff against\n"
    "  --report FILE      write the markdown post-mortem\n"
    "  --json FILE        write the deterministic JSON report\n"
    "  --window N         lookback rounds per incident  (default 60)\n"
    "  --diff-threshold F flag metrics moving more than F (default 0.10)\n"
    "At least one of --trace/--snapshots/--chaos is required; --chaos\n"
    "provides the incidents, the other two the evidence. With no\n"
    "--report/--json the markdown report goes to stdout.\n"
    "Exit: 0 all incidents attributed, 1 any left unknown, 2 bad args.\n";

int cmd_analyze(const ArgParser& args) {
  if (!args.has("trace") && !args.has("snapshots") && !args.has("chaos")) {
    std::fputs(kAnalyzeUsage, stdout);
    return 2;
  }

  namespace fx = obs::forensics;
  fx::RunArchive archive;
  std::string error;
  if (args.has("trace")) {
    const auto path = args.get_string("trace", "");
    if (!archive.load_trace_file(path, &error)) {
      throw CliError("cannot load trace '" + path + "': " + error);
    }
  }
  if (args.has("snapshots")) {
    const auto path = args.get_string("snapshots", "");
    if (!archive.load_snapshots_file(path, &error)) {
      throw CliError("cannot load snapshots '" + path + "': " + error);
    }
  }
  if (args.has("chaos")) {
    const auto path = args.get_string("chaos", "");
    if (!archive.load_chaos_file(path, &error)) {
      throw CliError("cannot load chaos report '" + path + "': " + error);
    }
  }

  std::unique_ptr<fx::CausalIndex> index;
  if (archive.has_trace()) {
    index = std::make_unique<fx::CausalIndex>(archive.trace());
  }

  fx::AttributionConfig config;
  config.lookback_rounds = args.get_size("window", 60, 1, 1'000'000);
  const fx::RootCauseAttributor attributor(archive, index.get(), config);
  const std::vector<fx::Incident> incidents = attributor.attribute();

  std::unique_ptr<fx::SnapshotDiff> diff;
  if (args.has("baseline-snapshots")) {
    if (!archive.has_snapshots()) {
      throw CliError("--baseline-snapshots needs --snapshots to diff against");
    }
    const auto path = args.get_string("baseline-snapshots", "");
    fx::SnapshotSurface baseline;
    if (!baseline.load_file(path)) {
      throw CliError("cannot load baseline snapshots '" + path + "': " +
                     baseline.last_error());
    }
    diff = std::make_unique<fx::SnapshotDiff>(fx::SnapshotDiff::compare(
        baseline, archive.snapshots(),
        args.get_double("diff-threshold", 0.10, 0.0, 100.0)));
  }

  if (args.has("json")) {
    const auto path = args.get_string("json", "");
    std::ofstream out(path);
    if (!out) throw CliError("cannot open '" + path + "' for writing");
    fx::write_report_json(out, archive, incidents, diff.get());
    std::printf("wrote %s\n", path.c_str());
  }
  if (args.has("report")) {
    const auto path = args.get_string("report", "");
    std::ofstream out(path);
    if (!out) throw CliError("cannot open '" + path + "' for writing");
    fx::write_report_markdown(out, archive, incidents, diff.get());
    std::printf("wrote %s\n", path.c_str());
  }
  if (!args.has("json") && !args.has("report")) {
    std::ostringstream out;
    fx::write_report_markdown(out, archive, incidents, diff.get());
    std::fputs(out.str().c_str(), stdout);
  }

  const std::size_t unknown = fx::unknown_incidents(incidents);
  std::printf("analyze: %zu incident(s), %zu unknown\n", incidents.size(),
              unknown);
  return unknown == 0 ? 0 : 1;
}

// ------------------------------------------------------------------ top

constexpr const char* kTopUsage =
    "sfgossip top [options] — live dashboard over a sharded run\n"
    "Runs the flat S&F engine on the sharded driver and repaints an\n"
    "in-terminal dashboard from the snapshot stream: actions/sec,\n"
    "degree quantiles vs the [dL, s] band, oracle drift scores, active\n"
    "fault windows and recovery episodes.\n"
    "  --nodes N         system size                  (default 2000)\n"
    "  --rounds R        gossip rounds                (default 400)\n"
    "  --loss L          message loss rate            (default 0.02)\n"
    "  --view-size S     view slots s                 (default 40)\n"
    "  --min-degree D    duplication threshold dL     (default 18)\n"
    "  --shards T        worker shards                (default 2)\n"
    "  --seed S          RNG seed                     (default 1)\n"
    "  --stride N        rounds between frames        (default 5)\n"
    "  --warmup W        recovery-tracker warmup      (default 100)\n"
    "  --oracle-warmup W rounds before drift checks engage (default\n"
    "                    400: a dL-seeded degree distribution takes\n"
    "                    hundreds of rounds to reach stationarity;\n"
    "                    'warming up' is shown until then)\n"
    "  --scenario FILE   run a chaos fault schedule under the dashboard\n"
    "  --snapshot-out F  also stream JSONL snapshots\n"
    "  --prom-out FILE   also rewrite a Prometheus exposition per frame\n"
    "  --plain           one line per frame (no ANSI repaint; forced\n"
    "                    when stdout is not a TTY)\n";

int cmd_top(const ArgParser& args) {
  const RunOptions in(args, "top");
  const bool scripted = args.has("scenario");
  sim::RunSpec spec = read_run_spec(
      in, {.nodes = 2000, .max_nodes = 10'000'000, .loss = 0.02, .shards = 2,
           .stride = 5, .max_rounds = 10'000'000});
  spec.recovery_warmup = in.size("warmup", 100, 0, 1'000'000);
  // Deliberately decoupled from the tracker warmup: the structural lanes
  // are meaningful after ~100 rounds, but the oracle's statistical checks
  // compare against the stationary distribution, which a dL-seeded
  // overlay only approaches over hundreds of rounds (OracleConfig
  // default). The dashboard shows "warming up" until the first probe.
  spec.oracle_warmup = in.size("oracle-warmup", spec.oracle_warmup, 0, 1'000'000);
  const bool plain = args.has("plain") || isatty(fileno(stdout)) == 0;
  spec.protocol.validate();
  // Drift scores come from the exact §6.2 oracle (fast enough to solve at
  // startup for any CLI-scale parameters).
  spec.prediction = sim::theory_prediction(spec.protocol, spec.loss);
  spec.recovery = scripted;
  // Dashboard frames ride the snapshot stream: the streamer borrows the
  // driver's registry and captures at every observation (stride rounds).
  spec.snapshot_stride = 1;
  spec.snapshot_out = args.get_string("snapshot-out", "");
  spec.prom_out = args.get_string("prom-out", "");
  sim::FlatRun run(spec);
  const obs::TheoryOracle& oracle = *run.oracle();
  const obs::RecoveryTracker* recovery = run.recovery();
  obs::SnapshotStreamer& streamer = *run.streamer();

  using Clock = std::chrono::steady_clock;
  Clock::time_point last_frame = Clock::now();
  const auto find_counter =
      [](const obs::RegistrySnapshot& s,
         std::string_view name) -> const obs::SnapshotCounter* {
    for (const auto& c : s.counters) {
      if (c.name == name) return &c;
    }
    return nullptr;
  };
  const auto find_gauge = [](const obs::RegistrySnapshot& s,
                             std::string_view name) -> const obs::SnapshotGauge* {
    for (const auto& gauge : s.gauges) {
      if (gauge.name == name) return &gauge;
    }
    return nullptr;
  };
  const auto find_hist =
      [](const obs::RegistrySnapshot& s,
         std::string_view name) -> const obs::SnapshotHistogram* {
    for (const auto& h : s.histograms) {
      if (h.name == name) return &h;
    }
    return nullptr;
  };

  streamer.add_sink(std::make_unique<obs::CallbackSnapshotSink>(
      [&](const obs::RegistrySnapshot& snap) {
        const Clock::time_point now = Clock::now();
        const double secs =
            std::chrono::duration<double>(now - last_frame).count();
        last_frame = now;
        const auto* actions = find_counter(snap, "actions_initiated");
        const auto* sent = find_counter(snap, "messages_sent");
        const auto* lost = find_counter(snap, "messages_lost");
        const auto* faulted = find_counter(snap, "messages_faulted");
        const auto* live = find_gauge(snap, "live_nodes");
        const auto* outdeg = find_hist(snap, "outdegree");
        const double aps =
            actions != nullptr && secs > 0.0
                ? static_cast<double>(actions->delta) / secs
                : 0.0;
        const double loss_pct =
            sent != nullptr && lost != nullptr && sent->value > 0
                ? 100.0 * static_cast<double>(lost->value) /
                      static_cast<double>(sent->value)
                : 0.0;

        const auto& monitor = oracle.monitor();
        const bool drift_ready = !monitor.samples().empty();
        const char* overall = drift_ready
                                  ? obs::drift_state_name(monitor.overall_state())
                                  : "warming up";

        std::string active_labels;
        for (const sim::FaultPhase& phase : spec.faults.phases) {
          if (phase.begin <= snap.round && snap.round < phase.end) {
            if (!active_labels.empty()) active_labels += ", ";
            active_labels += phase.label;
          }
        }
        const char* active =
            active_labels.empty() ? "-" : active_labels.c_str();

        char line[512];
        if (plain) {
          std::snprintf(
              line, sizeof(line),
              "[round %llu/%zu] live=%.0f act/s=%.0f loss=%.1f%% "
              "out p50/p90/p99=%.1f/%.1f/%.1f drift=%s faults=%s",
              static_cast<unsigned long long>(snap.round), spec.rounds,
              live != nullptr ? live->value : 0.0, aps, loss_pct,
              outdeg != nullptr ? outdeg->quantiles.p50 : 0.0,
              outdeg != nullptr ? outdeg->quantiles.p90 : 0.0,
              outdeg != nullptr ? outdeg->quantiles.p99 : 0.0, overall,
              active);
          std::string out(line);
          if (recovery) {
            std::snprintf(line, sizeof(line), " episodes=%zu open=%zu",
                          recovery->episodes().size(),
                          recovery->unrecovered());
            out += line;
          }
          std::printf("%s\n", out.c_str());
          std::fflush(stdout);
          return;
        }

        std::string frame = "\x1b[H\x1b[2J";
        const auto addf = [&frame, &line](const char* fmt, auto... xs) {
          std::snprintf(line, sizeof(line), fmt, xs...);
          frame += line;
        };
        addf("sfgossip top — round %llu/%zu   %zu nodes, %zu shard(s), "
             "loss=%.3f, seed=%llu\n",
             static_cast<unsigned long long>(snap.round), spec.rounds,
             spec.nodes, spec.shards, spec.loss,
             static_cast<unsigned long long>(spec.seed));
        frame +=
            "---------------------------------------------------------------"
            "\n";
        addf("actions/sec    %12.0f   (total %llu)\n", aps,
             static_cast<unsigned long long>(
                 actions != nullptr ? actions->value : 0));
        addf("messages       sent %llu   lost %llu (%.2f%%)   "
             "fault-dropped %llu\n",
             static_cast<unsigned long long>(sent != nullptr ? sent->value
                                                             : 0),
             static_cast<unsigned long long>(lost != nullptr ? lost->value
                                                             : 0),
             loss_pct,
             static_cast<unsigned long long>(
                 faulted != nullptr ? faulted->value : 0));
        addf("live nodes     %.0f\n", live != nullptr ? live->value : 0.0);
        if (outdeg != nullptr) {
          addf("outdegree      p50 %.1f   p90 %.1f   p99 %.1f   band "
               "[%zu, %zu]\n",
               outdeg->quantiles.p50, outdeg->quantiles.p90,
               outdeg->quantiles.p99, spec.protocol.min_degree,
               spec.protocol.view_size);
        }
        addf("drift          overall %s (%llu violation transitions)\n",
             overall,
             static_cast<unsigned long long>(monitor.violation_transitions()));
        if (drift_ready) {
          const obs::DriftSample& ds = monitor.samples().back();
          frame += "               ";
          for (std::size_t i = 0;
               i < static_cast<std::size_t>(obs::DriftCheck::kCheckCount);
               ++i) {
            const auto check = static_cast<obs::DriftCheck>(i);
            if (i != 0) frame += " | ";
            addf("%s %s %.2f", obs::drift_check_name(check),
                 obs::drift_state_name(monitor.state(check)), ds.score[i]);
          }
          frame += "\n";
        }
        addf("faults         %s\n", active);
        if (recovery) {
          addf("recovery       %zu episode(s), %zu unrecovered\n",
               recovery->episodes().size(), recovery->unrecovered());
        }
        std::fwrite(frame.data(), 1, frame.size(), stdout);
        std::fflush(stdout);
      }));
  run.run();

  const sim::NetworkMetrics net = run.driver().network_metrics();
  std::printf("\nrun complete: %llu frame(s), %llu sent, %llu lost, "
              "drift %s\n",
              static_cast<unsigned long long>(streamer.snapshots_taken()),
              static_cast<unsigned long long>(net.sent),
              static_cast<unsigned long long>(net.lost),
              obs::drift_state_name(oracle.monitor().overall_state()));
  if (recovery) {
    std::printf("%s", recovery->report().c_str());
    // Exit code gates on the scripted windows only: those are what the
    // user asked to watch. Undeclared excursions (e.g. an oracle probe
    // landing mid-relaxation) stay visible in the report above but don't
    // fail a dashboard run.
    std::size_t declared_unrecovered = 0;
    for (const obs::RecoveryEpisode& e : recovery->episodes()) {
      if (e.declared && e.degraded && !e.recovered) ++declared_unrecovered;
    }
    return declared_unrecovered == 0 ? 0 : 1;
  }
  return 0;
}

// One subcommand: its entry point, the usage printed for --help and for
// an unknown option, and every --option it reads (--help aside).
struct Command {
  std::string_view name;
  int (*run)(const ArgParser&);
  const char* usage;
  std::vector<std::string_view> options;
};

// The options chaos, top and arena read through RunOptions, so a scenario
// config line may set them too.
const std::vector<std::string_view> kRunKeys = {
    "nodes", "rounds", "loss", "view-size", "min-degree", "shards", "seed",
    "stride"};

std::vector<std::string_view> with_run_keys(
    std::vector<std::string_view> options) {
  options.insert(options.end(), kRunKeys.begin(), kRunKeys.end());
  return options;
}

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"simulate", cmd_simulate, kSimulateUsage,
       {"nodes", "rounds", "loss", "view-size", "min-degree", "protocol",
        "driver", "join-rate", "leave-rate", "seed", "csv", "dump",
        "metrics-out", "metrics-stride", "trace-out", "trace-capacity",
        "perfetto-out", "snapshot-out", "prom-out", "snapshot-stride",
        "retune", "shards", "warmup", "spike-begin", "spike-end",
        "spike-rate", "json"}},
      {"degrees", cmd_degrees, kDegreesUsage,
       {"view-size", "min-degree", "loss", "fixed-sum", "csv"}},
      {"thresholds", cmd_thresholds, kThresholdsUsage,
       {"target-degree", "delta"}},
      {"decay", cmd_decay, kDecayUsage,
       {"view-size", "min-degree", "loss", "delta", "rounds", "csv"}},
      {"connectivity", cmd_connectivity, kConnectivityUsage,
       {"loss", "delta", "epsilon"}},
      {"walk", cmd_walk, kWalkUsage, {"nodes", "length", "loss", "trials"}},
      {"globalmc", cmd_globalmc, kGlobalmcUsage,
       {"nodes", "view-size", "min-degree", "loss", "max-states",
        "init-degree"}},
      {"plan", cmd_plan, kPlanUsage, {"view-size", "emit"}},
      {"trace-dump", cmd_trace_dump, kTraceDumpUsage,
       {"message", "node", "limit", "json"}},
      {"chaos", cmd_chaos, kChaosUsage,
       with_run_keys({"scenario", "warmup", "grace", "oracle", "trace-out",
                      "trace-capacity", "snapshot-out", "prom-out",
                      "snapshot-stride", "json"})},
      {"analyze", cmd_analyze, kAnalyzeUsage,
       {"trace", "snapshots", "chaos", "baseline-snapshots", "report",
        "json", "window", "diff-threshold"}},
      {"top", cmd_top, kTopUsage,
       with_run_keys({"scenario", "warmup", "oracle-warmup", "snapshot-out",
                      "prom-out", "plain"})},
      {"arena", cmd_arena, kArenaUsage,
       with_run_keys({"scenario", "protocols", "kill-fraction", "kill-round",
                      "threads", "json"})},
  };
  return table;
}

const std::vector<std::string_view>& command_options(std::string_view name) {
  for (const Command& c : commands()) {
    if (c.name == name) return c.options;
  }
  throw std::logic_error("no subcommand " + std::string(name));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    const ArgParser args(argc - 1, argv + 1);
    for (const Command& c : commands()) {
      if (c.name != command) continue;
      if (args.has("help")) {
        std::fputs(c.usage, stdout);
        return 0;
      }
      for (const std::string& name : args.option_names()) {
        if (std::find(c.options.begin(), c.options.end(), name) ==
            c.options.end()) {
          std::fprintf(stderr, "error: unknown option --%s\n%s",
                       name.c_str(), c.usage);
          return 2;
        }
      }
      return c.run(args);
    }
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return usage();
  } catch (const CliError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  } catch (const std::invalid_argument& error) {
    // A parameter the library rejects (an inverted fault window, an odd
    // view size) is a bad argument too.
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
