#include "sim/round_driver.hpp"

namespace gossip::sim {

RoundDriver::RoundDriver(Cluster& cluster, LossModel& loss, Rng& rng)
    : cluster_(cluster), rng_(rng), network_(cluster, loss, rng) {}

void RoundDriver::step() {
  const NodeId initiator = cluster_.random_live_node(rng_);
  cluster_.node(initiator).on_initiate(rng_, network_);
  ++actions_;
}

void RoundDriver::run_actions(std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) step();
}

void RoundDriver::run_rounds(std::uint64_t rounds) {
  for (std::uint64_t r = 0; r < rounds; ++r) {
    network_.set_record_round(rounds_completed_ + 1);
    run_actions(cluster_.live_count());
    ++rounds_completed_;
    if (due(rounds_completed_)) {
      // Synchronous delivery: nothing is in flight at a round boundary.
      observe(rounds_completed_, cluster_, network_.metrics(),
              /*conserved=*/true);
    }
  }
}

}  // namespace gossip::sim
