#include "sim/event_driver.hpp"

namespace gossip::sim {

EventDriver::EventDriver(Cluster& cluster, LossModel& loss, Rng& rng,
                         EventDriverConfig config)
    : cluster_(cluster), rng_(rng), config_(config),
      network_(cluster, loss, rng, queue_, config.latency) {
  for (NodeId id = 0; id < cluster_.size(); ++id) {
    if (cluster_.live(id)) start_node(id);
  }
}

void EventDriver::start_node(NodeId id) { schedule_tick(id); }

void EventDriver::schedule_tick(NodeId id) {
  const double jitter_span = config_.period * config_.jitter;
  const double gap =
      config_.period - jitter_span + 2.0 * jitter_span * rng_.uniform_double();
  queue_.schedule(queue_.now() + gap, [this, id]() {
    // A node that died keeps its (dead) timer silent forever.
    if (!cluster_.live(id)) return;
    cluster_.node(id).on_initiate(rng_, network_);
    schedule_tick(id);
  });
}

void EventDriver::attach_flight_recorder(obs::FlightRecorder* recorder) {
  network_.set_flight_recorder(recorder);
  recording_ = recorder != nullptr;
}

void EventDriver::attach_fault_plane(const FaultPlane* plane) {
  network_.set_fault_plane(plane);
  faulting_ = plane != nullptr;
}

void EventDriver::run_for(double duration) {
  queue_.run_until(queue_.now() + duration);
}

void EventDriver::run_rounds(std::uint64_t rounds) {
  // Recording forces the stepped schedule too, so events carry round
  // stamps rather than all landing on round 0; a fault plane needs it for
  // the same reason — its phase windows read the network's round clock.
  if (!active() && !recording_ && !faulting_) {
    run_for(static_cast<double>(rounds) * config_.period);
    rounds_completed_ += rounds;
    return;
  }
  for (std::uint64_t r = 0; r < rounds; ++r) {
    network_.set_record_round(rounds_completed_ + 1);
    run_for(config_.period);
    ++rounds_completed_;
    if (due(rounds_completed_)) {
      observe(rounds_completed_, cluster_, network_.metrics(),
              /*conserved=*/false);
    }
  }
}

}  // namespace gossip::sim
