// One run pipeline for the flat S&F engine on the sharded driver.
//
// A RunSpec is plain data: the cluster and its initial overlay, the
// driver, the fault schedule and churn, the observers, and the output
// files. A FlatRun builds all of them from a spec in one fixed order,
// owns them together with every output stream, and runs the rounds. The
// order is
//
//   output files -> cluster + overlay -> fault plane -> driver -> series
//   -> watchdog -> profiler -> oracle (+ retune) -> flight recorder
//   -> recovery -> snapshot streamer + sinks
//
// so registry gauges register in one order (oracle, recorder, recovery)
// and the streamer, built last, sees all of them. Members are destroyed in
// the reverse order: every stream outlives the streamer that flushes into
// it.
//
// Every sharded run of the CLI (simulate --retune, chaos, top) and of
// bench_report (the scale, telemetry, drift, chaos and forensics legs)
// goes through here; each caller keeps only its seeds, its defaults and
// what it prints.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <ios>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "core/flat_send_forget.hpp"
#include "core/send_forget.hpp"
#include "obs/export/snapshot.hpp"
#include "obs/oracle/flight_recorder.hpp"
#include "obs/oracle/theory_oracle.hpp"
#include "obs/profiler.hpp"
#include "obs/recovery.hpp"
#include "obs/timeseries.hpp"
#include "obs/watchdog.hpp"
#include "sim/fault_plane.hpp"
#include "sim/retune.hpp"
#include "sim/sharded_driver.hpp"

namespace gossip::sim {

struct RunSpec {
  // Cluster and initial overlay: dL-regular, from permutation_regular
  // drawn with Rng(graph_seed), or circulant (slot j of u holds
  // (u + j + 1) mod n), which never materializes a Digraph: at n = 10^7
  // its adjacency lists would dwarf the packed slab.
  std::size_t nodes = 0;
  SendForgetConfig protocol = default_send_forget_config();
  std::size_t pairs_per_message = 1;
  std::uint64_t graph_seed = 1;
  bool circulant = false;

  // Driver. threads = 0 runs one worker per shard.
  std::size_t shards = 1;
  std::size_t threads = 0;
  double loss = 0.0;
  std::uint64_t seed = 1;
  bool count_metrics = true;

  // Schedule. Declared faults are told to the recovery tracker and to the
  // oracle (with `grace` post-heal rounds); a declared mass kill opens a
  // 20-round "mass-kill" window. `churn` kills one random node and revives
  // the last killed one with probability 1/2 every round, never dropping
  // below n/2 live nodes.
  std::size_t rounds = 0;
  FaultSchedule faults;
  bool declare_faults = true;
  std::uint64_t grace = 40;
  double kill_fraction = 0.0;
  std::uint64_t kill_round = 0;
  bool churn = false;

  // Observers, sampled every `stride` rounds. The oracle is attached when
  // a prediction is given; retune needs it. recorder_capacity = 0 leaves
  // the flight recorder out.
  std::uint64_t stride = 1;
  bool series = false;
  bool watchdog = false;
  bool profiler = false;
  std::optional<obs::TheoryPrediction> prediction;
  std::uint64_t oracle_warmup = 400;
  bool retune = false;
  bool recovery = false;
  std::uint64_t recovery_warmup = 100;
  double degree_floor_fraction = 0.0;
  std::size_t recorder_capacity = 0;

  // Outputs. snapshot_stride = 0 leaves the streamer out; keep_snapshots
  // keeps its JSONL in memory. Every non-empty path is opened when the run
  // is built, so a bad path fails before round 1.
  std::uint64_t snapshot_stride = 0;
  bool keep_snapshots = false;
  std::string snapshot_out;
  std::string prom_out;
  std::string trace_out;
  std::string json_out;
};

// The §6.2 prediction at (s, dL, loss, δ).
[[nodiscard]] obs::TheoryPrediction theory_prediction(
    const SendForgetConfig& protocol, double loss, double delta = 0.01);

// Opens `path` for writing; throws CliError naming it when it cannot.
[[nodiscard]] std::ofstream open_output(
    const std::string& path, std::ios::openmode mode = std::ios::out);

// The --snapshot-out / --prom-out sinks: JSONL snapshots, and a Prometheus
// exposition rewritten at every snapshot. Both paths are opened here, so a
// bad one throws CliError before the run starts.
void add_snapshot_sinks(obs::SnapshotStreamer& streamer,
                        const std::string& snapshot_out,
                        const std::string& prom_out);

class FlatRun {
 public:
  explicit FlatRun(RunSpec spec);
  FlatRun(const FlatRun&) = delete;
  FlatRun& operator=(const FlatRun&) = delete;

  // Runs spec.rounds rounds with the spec's churn, then flushes the
  // streamer and writes the trace_out dump. Returns the wall seconds of
  // the rounds alone.
  double run();

  [[nodiscard]] const RunSpec& spec() const { return spec_; }
  [[nodiscard]] FlatSendForgetCluster& cluster() { return cluster_; }
  [[nodiscard]] ShardedDriver& driver() { return driver_; }
  [[nodiscard]] const FaultPlane& fault_plane() const { return plane_; }
  // Null when the spec leaves them out.
  [[nodiscard]] obs::RoundTimeSeries* series() { return series_.get(); }
  [[nodiscard]] obs::InvariantWatchdog* watchdog() { return watchdog_.get(); }
  [[nodiscard]] obs::PhaseProfiler* profiler() { return profiler_.get(); }
  [[nodiscard]] obs::TheoryOracle* oracle() { return oracle_.get(); }
  [[nodiscard]] RetuneController* retune() { return retune_.get(); }
  [[nodiscard]] obs::RecoveryTracker* recovery() { return recovery_.get(); }
  [[nodiscard]] obs::FlightRecorder* recorder() { return recorder_.get(); }
  [[nodiscard]] obs::SnapshotStreamer* streamer() { return streamer_.get(); }
  // The kept JSONL snapshots (keep_snapshots).
  [[nodiscard]] std::string snapshots() const { return snapshots_.str(); }
  // The json_out file, open for the caller's report.
  [[nodiscard]] std::ostream& json() { return json_; }

  // Nodes the mass kill took, and kills + revives of the per-round churn.
  [[nodiscard]] std::size_t killed() const { return killed_; }
  [[nodiscard]] std::size_t churn_events() const { return churn_events_; }

 private:
  RunSpec spec_;
  std::ofstream json_;
  std::ofstream trace_;
  FlatSendForgetCluster cluster_;
  FaultPlane plane_;
  ShardedDriver driver_;
  std::unique_ptr<obs::RoundTimeSeries> series_;
  std::unique_ptr<obs::InvariantWatchdog> watchdog_;
  std::unique_ptr<obs::PhaseProfiler> profiler_;
  std::unique_ptr<obs::TheoryOracle> oracle_;
  std::unique_ptr<RetuneController> retune_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::unique_ptr<obs::RecoveryTracker> recovery_;
  std::ostringstream snapshots_;
  std::unique_ptr<obs::SnapshotStreamer> streamer_;
  std::size_t killed_ = 0;
  std::size_t churn_events_ = 0;
};

}  // namespace gossip::sim
