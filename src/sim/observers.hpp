// The observer set every driver shares: the borrowed observers and the
// observation stride, run at each sampled round in one fixed order
//
//   series -> watchdog -> oracle -> retune -> recovery -> detection -> streamer
//
// whatever order they were attached in, so each observer sees the round's
// output of every one before it, and the streamer, last, captures every
// gauge the others wrote. Each driver inherits the set privately and
// re-exports the attach calls it supports; it owns only what differs: how
// it builds the probe and the counters, and whether conservation holds at
// its sample point. Observation draws no RNG and never mutates protocol
// state (the retune actuator aside, which runs while the cluster is
// quiescent).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/flat_send_forget.hpp"
#include "obs/detection.hpp"
#include "obs/export/snapshot.hpp"
#include "obs/oracle/theory_oracle.hpp"
#include "obs/recovery.hpp"
#include "obs/timeseries.hpp"
#include "obs/watchdog.hpp"
#include "sim/cluster.hpp"
#include "sim/network.hpp"
#include "sim/retune.hpp"

namespace gossip::sim {

// One sample point, as the driver hands it to the observers.
struct ObservedRound {
  std::uint64_t round = 0;
  // Read only when needs_probe() is true.
  const obs::FlatClusterProbe* probe = nullptr;
  obs::CumulativeCounters counters;
  // The engine being observed: exactly one of `flat` and `cluster` is set.
  // The flat engine gets the watchdog's whole-cluster check and recovery's
  // connectivity lane; the object engine gets per-node degree checks and
  // the detection tracker's verdicts.
  const FlatSendForgetCluster* flat = nullptr;
  std::size_t nodes_per_shard = 0;  // watchdog shard attribution (flat)
  const Cluster* cluster = nullptr;
  // Whether sent == lost + delivered + to_dead + faulted holds here; false
  // where messages may be in flight at the sample point.
  bool conserved = false;
};

class ObserverSet {
 public:
  // All borrowed, may be null; attach before running. Also sets the
  // stride to the series' stride (a later set_observation_stride wins).
  void attach_time_series(obs::RoundTimeSeries* series);
  void attach_watchdog(obs::InvariantWatchdog* watchdog) {
    watchdog_ = watchdog;
  }
  void attach_oracle(obs::TheoryOracle* oracle) { oracle_ = oracle; }
  void attach_retune(RetuneController* retune) { retune_ = retune; }
  void attach_recovery(obs::RecoveryTracker* tracker) { recovery_ = tracker; }
  void attach_detection(obs::DetectionTracker* tracker) {
    detection_ = tracker;
  }
  void attach_streamer(obs::SnapshotStreamer* streamer) {
    streamer_ = streamer;
  }
  // Rounds whose index is a multiple of `stride` sample (0 acts as 1).
  void set_observation_stride(std::uint64_t stride);

  [[nodiscard]] obs::DetectionTracker* detection() const { return detection_; }
  [[nodiscard]] bool active() const {
    return needs_probe() || detection_ != nullptr;
  }
  // Every observer but the detection tracker reads the probe or rides on
  // the same sample point.
  [[nodiscard]] bool needs_probe() const {
    return series_ != nullptr || watchdog_ != nullptr || oracle_ != nullptr ||
           retune_ != nullptr || recovery_ != nullptr || streamer_ != nullptr;
  }
  [[nodiscard]] bool due(std::uint64_t round) const {
    return active() && round % stride_ == 0;
  }
  // Scratch for the per-id occurrence census the oracle reads; null when
  // no oracle is attached, so the probe can skip filling it.
  [[nodiscard]] std::vector<std::uint32_t>* occurrences() {
    return oracle_ != nullptr ? &occurrences_ : nullptr;
  }

  void observe(const ObservedRound& sample);
  // The object engine's sample point: probes `cluster` (unless only the
  // detection tracker is attached) and counts with the network's totals.
  void observe(std::uint64_t round, const Cluster& cluster,
               const NetworkMetrics& network, bool conserved);

 private:
  obs::RoundTimeSeries* series_ = nullptr;
  obs::InvariantWatchdog* watchdog_ = nullptr;
  obs::TheoryOracle* oracle_ = nullptr;
  RetuneController* retune_ = nullptr;
  obs::RecoveryTracker* recovery_ = nullptr;
  obs::DetectionTracker* detection_ = nullptr;
  obs::SnapshotStreamer* streamer_ = nullptr;
  std::vector<std::uint32_t> occurrences_;
  std::uint64_t stride_ = 1;
};

}  // namespace gossip::sim
