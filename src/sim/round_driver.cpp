#include "sim/round_driver.hpp"

#include <cstdint>

namespace gossip::sim {

RoundDriver::RoundDriver(Cluster& cluster, LossModel& loss, Rng& rng)
    : cluster_(cluster), rng_(rng), network_(cluster, loss, rng) {}

void RoundDriver::run_actions(std::uint64_t count) {
  // Nothing inside the batch changes liveness, so drawing every pick first
  // leaves them i.i.d. uniform over the live set; it only moves the picks'
  // draws ahead of the actions' own draws on the shared Rng.
  picks_.resize(count);
  for (NodeId& u : picks_) u = cluster_.random_live_node(rng_);
  // Each action touches its initiator's protocol object and view row; the
  // cluster hands out both addresses by id, so pick i + 4's pair is fetched
  // while pick i runs.
  for (std::uint64_t i = 0; i < count; ++i) {
    if (i + 4 < count) cluster_.prefetch_node(picks_[i + 4]);
    cluster_.node(picks_[i]).on_initiate(rng_, network_);
    ++actions_;
  }
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
