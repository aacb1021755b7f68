// Serialized action driver — the paper's analysis model.
//
// "A central entity repeatedly selects a random node, invokes its
// InitiateAction method, and waits for the completion of the Receive by the
// receiving node" (§5). A *round* is the period in which each node is
// expected to initiate exactly one action (§6.5), i.e. live_count()
// uniformly random picks with replacement.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "obs/oracle/flight_recorder.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_plane.hpp"
#include "sim/loss.hpp"
#include "sim/network.hpp"
#include "sim/observers.hpp"

namespace gossip::sim {

class RoundDriver : private ObserverSet {
 public:
  // The driver borrows all three; they must outlive it.
  RoundDriver(Cluster& cluster, LossModel& loss, Rng& rng);

  // One action: a uniformly random live node initiates; any messages are
  // delivered (or lost) synchronously before this returns.
  void step();

  // `count` actions.
  void run_actions(std::uint64_t count);

  // `rounds` rounds of live_count() actions each. Attached observers are
  // sampled at round boundaries (when the round index matches the series'
  // stride); step()/run_actions() never sample — there is no round clock.
  void run_rounds(std::uint64_t rounds);

  [[nodiscard]] std::uint64_t actions_executed() const { return actions_; }
  [[nodiscard]] std::uint64_t rounds_completed() const {
    return rounds_completed_;
  }
  [[nodiscard]] const NetworkMetrics& network_metrics() const {
    return network_.metrics();
  }
  [[nodiscard]] Cluster& cluster() { return cluster_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  // --- observability (attach before run_rounds; borrowed, may be null).
  // Observation reads views and counters only: it draws nothing from the
  // RNG, so attaching observers does not change the run. The observers run
  // at sampled round boundaries in ObserverSet's fixed order; the direct
  // network delivers synchronously, so conservation is checked exactly.
  // Recovery's connectivity lane is skipped (this driver's polymorphic
  // cluster has no flat view graph). This driver has no registry of its
  // own: a streamer owns or borrows an external one fed through its probes,
  // and the driver only drives its capture clock. ---
  using ObserverSet::attach_oracle;
  using ObserverSet::attach_recovery;
  // The actuator supplied to the controller must target this cluster.
  using ObserverSet::attach_retune;
  using ObserverSet::attach_streamer;
  using ObserverSet::attach_time_series;
  using ObserverSet::attach_watchdog;
  // Transport-level flight recording (send/lose/deliver/to-dead into the
  // recorder's shard 0; see DirectNetwork::set_flight_recorder).
  void attach_flight_recorder(obs::FlightRecorder* recorder) {
    network_.set_flight_recorder(recorder);
  }
  // Scripted link-level fault injection on the direct network (the round
  // clock run_rounds maintains doubles as the plane's schedule clock, so
  // only run_rounds — not step/run_actions — advances phases).
  void attach_fault_plane(const FaultPlane* plane) {
    network_.set_fault_plane(plane);
  }

 private:
  Cluster& cluster_;
  Rng& rng_;
  DirectNetwork network_;
  std::uint64_t actions_ = 0;
  std::uint64_t rounds_completed_ = 0;
};

}  // namespace gossip::sim
