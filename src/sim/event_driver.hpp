// Concurrent discrete-event driver.
//
// Unlike the serialized round driver, nodes here fire on their own periodic
// timers (with jitter) and messages take nonzero latency, so protocol
// actions genuinely overlap in time — the regime the paper argues S&F
// handles by construction (§4.1: every S&F step is atomic at one node).
// Benches compare steady-state statistics under this driver against the
// serialized model to validate that the analysis carries over.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "obs/oracle/flight_recorder.hpp"
#include "sim/cluster.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault_plane.hpp"
#include "sim/loss.hpp"
#include "sim/network.hpp"
#include "sim/observers.hpp"

namespace gossip::sim {

struct EventDriverConfig {
  // Mean period between a node's action initiations (one simulated round
  // per period). Each gap is jittered uniformly in [period*(1-jitter),
  // period*(1+jitter)].
  double period = 10.0;
  double jitter = 0.2;
  LatencyModel latency{};
};

class EventDriver : private ObserverSet {
 public:
  EventDriver(Cluster& cluster, LossModel& loss, Rng& rng,
              EventDriverConfig config = {});

  // Runs simulated time forward by `duration`.
  void run_for(double duration);

  // Runs approximately `rounds` rounds (rounds * period time units).
  // With observers attached, time advances one period at a time and the
  // observers sample at stride boundaries. run_until pins now() to its
  // target, so for a binary-representable period (the 10.0 default) the
  // stepped schedule is bit-identical to the single run_for; otherwise the
  // round boundaries may differ by float rounding.
  void run_rounds(std::uint64_t rounds);

  // --- observability (attach before run_rounds; borrowed, may be null).
  // Any observer, a recorder or a fault plane forces the stepped run_rounds
  // schedule, so the round clock they read actually advances. Samples are
  // taken mid-flight (messages may be queued): the watchdog runs its
  // structural and rate checks but not conservation, and the oracle's rate
  // window sees send-time counters slightly ahead of delivery-time ones.
  // Recovery's connectivity lane is skipped (no flat view graph behind the
  // polymorphic cluster); the streamer is externally fed, as under
  // RoundDriver. ---
  using ObserverSet::attach_oracle;
  using ObserverSet::attach_recovery;
  using ObserverSet::attach_streamer;
  using ObserverSet::attach_time_series;
  using ObserverSet::attach_watchdog;
  // Transport-level flight recording (QueuedNetwork; delivery events are
  // stamped with the round current at delivery time).
  void attach_flight_recorder(obs::FlightRecorder* recorder);
  // Scripted link-level fault injection.
  void attach_fault_plane(const FaultPlane* plane);
  [[nodiscard]] std::uint64_t rounds_completed() const {
    return rounds_completed_;
  }

  // Starts the periodic timer of a node (used after spawn/revive).
  void start_node(NodeId id);

  [[nodiscard]] SimTime now() const { return queue_.now(); }
  [[nodiscard]] const NetworkMetrics& network_metrics() const {
    return network_.metrics();
  }
  [[nodiscard]] Cluster& cluster() { return cluster_; }
  [[nodiscard]] EventQueue& queue() { return queue_; }
  [[nodiscard]] Rng& rng() { return rng_; }

 private:
  void schedule_tick(NodeId id);

  Cluster& cluster_;
  Rng& rng_;
  EventDriverConfig config_;
  EventQueue queue_;
  QueuedNetwork network_;
  std::uint64_t rounds_completed_ = 0;
  bool recording_ = false;
  bool faulting_ = false;
};

}  // namespace gossip::sim
