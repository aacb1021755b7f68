#include "sim/round_driver.hpp"

#include <cstdint>

namespace gossip::sim {
namespace {

constexpr std::uintptr_t kLine = 64;

// Hints `lines` cache lines from `p` toward cache. No architectural effect.
// always_inline for the reason FlatSendForgetCluster::prefetch_node gives:
// GCC deletes a call to a function whose only effects are prefetches unless
// it was inlined first.
[[gnu::always_inline]] inline void prefetch_lines(const void* p,
                                                  std::uintptr_t lines) {
  const auto first = reinterpret_cast<std::uintptr_t>(p);
  for (std::uintptr_t k = 0; k < lines; ++k) {
    __builtin_prefetch(reinterpret_cast<const void*>(first + k * kLine));
  }
}

}  // namespace

RoundDriver::RoundDriver(Cluster& cluster, LossModel& loss, Rng& rng)
    : cluster_(cluster), rng_(rng), network_(cluster, loss, rng) {}

void RoundDriver::run_actions(std::uint64_t count) {
  // Nothing inside the batch changes liveness, so drawing every pick first
  // leaves them i.i.d. uniform over the live set; it only moves the picks'
  // draws ahead of the actions' own draws on the shared Rng.
  picks_.resize(count);
  for (NodeId& u : picks_) u = cluster_.random_live_node(rng_);
  // Each action walks two dependent misses: the protocol object (vptr,
  // view handle, metrics, config), then the view row it points to. So the
  // object of pick i + 2 is fetched while pick i runs, and the row of pick
  // i + 1, whose object arrived one action earlier.
  for (std::uint64_t i = 0; i < count; ++i) {
    if (i + 2 < count) prefetch_lines(&cluster_.node(picks_[i + 2]), 3);
    if (i + 1 < count) {
      const LocalView& next = cluster_.node(picks_[i + 1]).view();
      prefetch_lines(next.slots(),
                     (next.capacity() * sizeof(PackedViewEntry) + kLine - 1) /
                         kLine);
    }
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
