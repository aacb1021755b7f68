// All-to-All heartbeat failure detector (the classic full-mesh scheme:
// every member sends an incrementing heartbeat counter to every other
// member each period, and marks members whose counter stalls).
//
// The arena's O(n^2)-messages contender: detection is fast and loss only
// delays it (any later heartbeat re-arms the timer), but the per-round
// message bill is n*(n-1) against S&F's n and SWIM's ~2n — the overhead
// column of BENCH_arena.json. Timeouts follow the standard two-stage
// scheme: a member whose counter has not advanced for `fail_timeout`
// rounds is marked faulty (TFAIL), and after `remove_timeout` further
// rounds it is dropped from the heartbeat fan-out (TREMOVE) — the verdict
// stays kFaulty so detection remains visible. A heartbeat with a higher
// counter from a faulty or removed member resurrects it (partition heal).
//
// Fully deterministic: no RNG draws at all; heartbeats fan out in member-id
// order and every deadline is a round comparison against the on_round clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/protocol.hpp"

namespace gossip {

struct AllToAllConfig {
  // Vestigial LocalView capacity (full-membership detector).
  std::size_t view_size = 16;
  // Heartbeats are sent every `heartbeat_period` rounds.
  std::uint64_t heartbeat_period = 1;
  // TFAIL: rounds without a counter advance before a member is faulty.
  std::uint64_t fail_timeout = 5;
  // TREMOVE: further rounds before a faulty member leaves the fan-out.
  std::uint64_t remove_timeout = 10;
};

class AllToAll final : public PeerProtocol {
 public:
  enum class Status : std::uint8_t { kAlive = 0, kFaulty = 1, kRemoved = 2 };

  struct Member {
    std::uint64_t counter = 0;       // highest heartbeat counter seen
    std::uint64_t last_advance = 0;  // round of the last counter advance
    Status status = Status::kAlive;
  };

  AllToAll(NodeId self, const AllToAllConfig& config);

  [[nodiscard]] const AllToAllConfig& config() const { return config_; }

  using PeerProtocol::install_view;
  void install_view(std::span<const NodeId> ids) override;

  void on_round(std::uint64_t round, Rng& rng, Transport& transport) override;
  void on_initiate(Rng& rng, Transport& transport) override;
  void on_message(const Message& message, Rng& rng,
                  Transport& transport) override;

  [[nodiscard]] MemberVerdict member_verdict(NodeId id) const override;
  [[nodiscard]] std::uint64_t state_digest() const override;

  [[nodiscard]] const Member* member(NodeId id) const;
  [[nodiscard]] std::size_t member_count() const { return ids_.size(); }

 private:
  [[nodiscard]] Member* find_member(NodeId id);
  Member& add_member(NodeId id);

  AllToAllConfig config_;
  std::uint64_t round_ = 0;
  std::uint64_t counter_ = 0;  // this node's own heartbeat counter

  std::vector<Member> table_;
  std::vector<std::uint8_t> present_;
  std::vector<NodeId> ids_;  // present members, insertion order
};

}  // namespace gossip
