#include "sim/run.hpp"

#include <chrono>
#include <utility>
#include <vector>

#include "analysis/prediction.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "graph/graph_gen.hpp"
#include "sim/churn.hpp"

namespace gossip::sim {

namespace {

using Clock = std::chrono::steady_clock;

FlatSendForgetCluster build_cluster(const RunSpec& spec) {
  FlatSendForgetCluster cluster(
      spec.nodes, spec.protocol,
      FlatClusterOptions{
          .pairs_per_message = spec.pairs_per_message,
          .init_threads = spec.threads == 0 ? spec.shards : spec.threads});
  const std::size_t dl = spec.protocol.min_degree;
  if (spec.circulant) {
    // Each offset is a permutation of the id space, so the overlay starts
    // dL-regular, as from permutation_regular.
    for (NodeId u = 0; u < spec.nodes; ++u) {
      for (std::size_t j = 0; j < dl; ++j) {
        cluster.install_slot(u, j,
                             static_cast<NodeId>((u + j + 1) % spec.nodes));
      }
    }
  } else {
    Rng graph_rng(spec.graph_seed);
    cluster.install_graph(permutation_regular(spec.nodes, dl, graph_rng));
  }
  return cluster;
}

std::ofstream open_if_named(const std::string& path,
                            std::ios::openmode mode = std::ios::out) {
  return path.empty() ? std::ofstream() : open_output(path, mode);
}

}  // namespace

obs::TheoryPrediction theory_prediction(const SendForgetConfig& protocol,
                                        double loss, double delta) {
  analysis::DegreeMcParams params;
  params.view_size = protocol.view_size;
  params.min_degree = protocol.min_degree;
  params.loss = loss;
  return analysis::make_theory_prediction(params, delta);
}

std::ofstream open_output(const std::string& path, std::ios::openmode mode) {
  std::ofstream out(path, mode);
  if (!out) throw CliError("cannot open '" + path + "' for writing");
  return out;
}

void add_snapshot_sinks(obs::SnapshotStreamer& streamer,
                        const std::string& snapshot_out,
                        const std::string& prom_out) {
  if (!snapshot_out.empty()) {
    auto sink = std::make_unique<obs::JsonlSnapshotSink>(snapshot_out);
    if (!sink->ok()) {
      throw CliError("cannot open '" + snapshot_out + "' for writing");
    }
    streamer.add_sink(std::move(sink));
  }
  if (!prom_out.empty()) {
    // The sink rewrites the file at each snapshot; open it once now so a
    // bad path fails here instead of silently at every snapshot.
    (void)open_output(prom_out, std::ios::app);
    streamer.add_sink(std::make_unique<obs::PrometheusSnapshotSink>(prom_out));
  }
}

FlatRun::FlatRun(RunSpec spec)
    : spec_(std::move(spec)),
      json_(open_if_named(spec_.json_out)),
      trace_(open_if_named(spec_.trace_out,
                           std::ios::out | std::ios::binary)),
      cluster_(build_cluster(spec_)),
      plane_(spec_.faults, spec_.nodes, spec_.shards),
      driver_(cluster_, ShardedDriverConfig{
                            .shard_count = spec_.shards,
                            .thread_count = spec_.threads,
                            .loss_rate = spec_.loss,
                            .seed = spec_.seed,
                            .count_metrics = spec_.count_metrics}) {
  const SendForgetConfig& cfg = spec_.protocol;
  const std::vector<FaultPhase>& phases = spec_.faults.phases;
  if (!spec_.faults.empty()) driver_.attach_fault_plane(&plane_);
  driver_.set_observation_stride(spec_.stride);

  if (spec_.series) {
    series_ = std::make_unique<obs::RoundTimeSeries>(spec_.stride);
    driver_.attach_time_series(series_.get());
  }
  if (spec_.watchdog) {
    watchdog_ = std::make_unique<obs::InvariantWatchdog>(obs::WatchdogConfig{
        .min_degree = cfg.min_degree, .view_size = cfg.view_size});
    driver_.attach_watchdog(watchdog_.get());
  }
  if (spec_.profiler) {
    profiler_ = std::make_unique<obs::PhaseProfiler>(spec_.shards);
    driver_.attach_profiler(profiler_.get());
  }

  if (spec_.prediction) {
    obs::OracleConfig oracle_config;
    oracle_config.warmup_rounds = spec_.oracle_warmup;
    oracle_ = std::make_unique<obs::TheoryOracle>(*spec_.prediction,
                                                  oracle_config);
    if (spec_.declare_faults) {
      for (const FaultPhase& phase : phases) {
        oracle_->declare_fault_window(phase.begin, phase.end, spec_.grace);
      }
    }
    driver_.attach_oracle(oracle_.get());
    if (spec_.retune) {
      // The controller re-solves at candidate dL values live, through the
      // exact §6.2 solve (~ms per candidate, cache-served on repeats).
      retune_ = std::make_unique<RetuneController>(
          RetuneConfig{},
          [](std::size_t s, std::size_t dl, double loss, double delta) {
            return theory_prediction({.view_size = s, .min_degree = dl}, loss,
                                     delta);
          },
          [this](std::size_t dl) { cluster_.set_min_degree(dl); });
      retune_->bind_oracle(oracle_.get());
      driver_.attach_retune(retune_.get());
    }
  }

  if (spec_.recorder_capacity > 0) {
    recorder_ = std::make_unique<obs::FlightRecorder>(
        spec_.shards, spec_.recorder_capacity);
    driver_.attach_flight_recorder(recorder_.get());
  }

  if (spec_.recovery) {
    recovery_ = std::make_unique<obs::RecoveryTracker>(obs::RecoveryConfig{
        .min_degree = cfg.min_degree,
        .view_size = cfg.view_size,
        .degree_floor_fraction = spec_.degree_floor_fraction,
        .warmup_rounds = spec_.recovery_warmup});
    if (spec_.declare_faults) {
      for (const FaultPhase& phase : phases) {
        recovery_->declare_window(phase.begin, phase.end, phase.label);
      }
      if (spec_.kill_fraction > 0.0) {
        // The window spans the to-dead washout transient (~4-round
        // half-life), not just the kill instant: the degree dip only
        // shows once dead references wash out, and a window healed before
        // the dip would close as a false "recovered".
        recovery_->declare_window(spec_.kill_round, spec_.kill_round + 20,
                                  "mass-kill");
      }
    }
    recovery_->attach_series(series_.get());
    driver_.attach_recovery(recovery_.get());
  }

  if (spec_.snapshot_stride > 0) {
    streamer_ = std::make_unique<obs::SnapshotStreamer>(
        driver_.metrics_registry(),
        obs::ExportConfig{.snapshot_stride = spec_.snapshot_stride});
    if (spec_.keep_snapshots) {
      streamer_->add_sink(std::make_unique<obs::JsonlSnapshotSink>(snapshots_));
    }
    add_snapshot_sinks(*streamer_, spec_.snapshot_out, spec_.prom_out);
    driver_.attach_streamer(streamer_.get());
  }
}

double FlatRun::run() {
  const auto start = Clock::now();
  if (spec_.churn) {
    const std::size_t n = spec_.nodes;
    std::vector<NodeId> dead;
    for (std::uint64_t r = 0; r < spec_.rounds; ++r) {
      Rng& rng = driver_.churn_rng();
      const auto victim = static_cast<NodeId>(rng.uniform(n));
      if (cluster_.live(victim) && cluster_.live_count() > n / 2) {
        driver_.kill(victim);
        dead.push_back(victim);
        ++churn_events_;
      }
      if (!dead.empty() && rng.bernoulli(0.5)) {
        driver_.revive(dead.back());
        dead.pop_back();
        ++churn_events_;
      }
      driver_.run_rounds(1);
    }
  } else {
    killed_ = run_with_mass_kill(driver_, cluster_, spec_.rounds,
                                 spec_.kill_fraction, spec_.kill_round);
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (streamer_) streamer_->finish();
  if (recorder_ && trace_.is_open()) {
    recorder_->dump(trace_);
    trace_.flush();
    if (!trace_) throw CliError("cannot write trace '" + spec_.trace_out + "'");
  }
  return seconds;
}

}  // namespace gossip::sim
