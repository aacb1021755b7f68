// SWIM failure detector (Das, Gupta, Motivala; refs the arena compares
// against S&F's no-timeout design).
//
// Round-based probing: every round each node pings one random non-faulty
// member; a missing ack escalates to k indirect ping-req probes through
// random helpers, then to local suspicion, and after a suspicion timeout to
// a confirmed failure. Membership assertions (alive / suspect / faulty,
// each stamped with the subject's incarnation number) are piggybacked on
// every ping / ping-req / ack and spread epidemically; a node that learns
// it is suspected refutes by bumping its own incarnation. Two deliberate
// extensions over the original protocol, both standard in production
// implementations (e.g. memberlist):
//
//   * a direct ack from a locally-suspected member downgrades the local
//     suspicion immediately (the prober has first-hand evidence), and
//   * confirmed-faulty members are still probed at a low duty cycle
//     (`faulty_probe_interval`), carrying the faulty assertion so a
//     wrongly-confirmed member learns of it and can refute with a higher
//     incarnation — without this, a healed partition leaves the two sides
//     permanently deadlocked on each other's confirms.
//
// Determinism contract: the protocol owns no clock and draws no
// randomness of its own. All timing comes from the round number handed to
// on_round (deadlines are plain round comparisons) and every random choice
// (probe target, helpers, piggyback fill) comes from the caller's RNG — the
// per-shard streams under the arena driver — so a run is bit-identical for
// a fixed (seed, shard_count) regardless of thread count or wall-clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/protocol.hpp"

namespace gossip {

struct SwimConfig {
  // Vestigial LocalView capacity (SWIM is a full-membership detector; the
  // member table, not the view, is its state). Kept > 0 so generic view
  // probes see the installed seed entries.
  std::size_t view_size = 16;
  // Rounds from a ping until the missing ack escalates to indirect probes.
  // Under the arena's one-round delivery latency an ack takes 2 rounds to
  // come back, so 2 is the minimum that never times out at zero loss.
  std::uint64_t ack_timeout = 2;
  // Helpers per indirect escalation (the protocol's k).
  std::size_t indirect_probes = 3;
  // Rounds from the indirect escalation until suspicion. The relayed ack
  // path takes 4 rounds under the arena's latency; 5 leaves one round of
  // slack.
  std::uint64_t indirect_timeout = 5;
  // Rounds a member stays suspected before it is confirmed faulty.
  std::uint64_t suspicion_timeout = 12;
  // Piggybacked updates per outgoing message.
  std::size_t piggyback_limit = 6;
  // Per-update retransmit budget: transmit_factor * (floor(log2 m) + 1)
  // transmissions, m = current member count (the protocol's lambda log n).
  std::size_t transmit_factor = 3;
  // Every this many rounds, one confirmed-faulty member is probed in
  // addition to the regular target (the reclaim path above). 0 disables.
  std::uint64_t faulty_probe_interval = 4;
};

class Swim final : public PeerProtocol {
 public:
  enum class Status : std::uint8_t { kAlive = 0, kSuspect = 1, kFaulty = 2 };

  struct Member {
    Status status = Status::kAlive;
    std::uint32_t incarnation = 0;
    std::uint64_t suspect_since = 0;  // round the current suspicion began
  };

  Swim(NodeId self, const SwimConfig& config);

  [[nodiscard]] const SwimConfig& config() const { return config_; }

  // Seeds the member table (everyone alive, incarnation 0) and announces
  // this node so joiners disseminate themselves.
  using PeerProtocol::install_view;
  void install_view(std::span<const NodeId> ids) override;

  void on_round(std::uint64_t round, Rng& rng, Transport& transport) override;
  // Fallback for round-less drivers: one probe step on an internal clock.
  void on_initiate(Rng& rng, Transport& transport) override;
  void on_message(const Message& message, Rng& rng,
                  Transport& transport) override;

  [[nodiscard]] MemberVerdict member_verdict(NodeId id) const override;
  [[nodiscard]] std::uint64_t state_digest() const override;

  // Test / observer access.
  [[nodiscard]] const Member* member(NodeId id) const;
  [[nodiscard]] std::uint32_t incarnation() const { return incarnation_; }
  [[nodiscard]] std::size_t member_count() const { return member_count_; }
  [[nodiscard]] std::size_t faulty_count() const { return faulty_count_; }
  [[nodiscard]] std::size_t pending_probes() const { return pending_.size(); }

 private:
  struct PendingProbe {
    NodeId target = kNilNode;
    std::uint64_t deadline = 0;
    bool indirect = false;  // already escalated to ping-req
  };
  struct PendingRelay {
    NodeId target = kNilNode;
    NodeId origin = kNilNode;
    std::uint64_t deadline = 0;
  };
  struct OutUpdate {
    MembershipUpdate update;
    std::uint32_t transmits = 0;
  };

  [[nodiscard]] Member* find_member(NodeId id);
  [[nodiscard]] const Member* find_member(NodeId id) const;
  // Adds `id` (unknown ids only) and returns its entry.
  Member& add_member(NodeId id, Status status, std::uint32_t incarnation);
  void set_status(Member& m, NodeId id, Status status, std::uint64_t round);

  // True when `update` carries strictly newer information than (status,
  // incarnation): higher incarnation, or same incarnation and higher status.
  [[nodiscard]] static bool overrides(Status status, std::uint32_t incarnation,
                                      const MembershipUpdate& update);

  void apply_updates(const Message& message, std::uint64_t round);
  void enqueue_update(MembershipUpdate update);
  void fill_piggyback(Message& message, Rng& rng);
  [[nodiscard]] std::size_t transmit_budget() const;

  // Uniformly random member with the wanted faulty-ness, excluding self and
  // `exclude`; kNilNode when none qualifies. Rejection sampling with a
  // deterministic scan fallback.
  [[nodiscard]] NodeId random_member(Rng& rng, bool faulty, NodeId exclude);

  void send_ping(NodeId target, std::uint64_t round, Rng& rng,
                 Transport& transport);
  void start_probe(NodeId target, std::uint64_t round, Rng& rng,
                   Transport& transport);
  void expire_timers(std::uint64_t round, Rng& rng, Transport& transport);

  SwimConfig config_;
  std::uint64_t round_ = 0;           // last round ticked (message stamps)
  std::uint32_t incarnation_ = 0;     // this node's own incarnation
  std::uint64_t seq_ = 0;             // probe sequence numbers

  // Member table indexed by id (grown on demand); `present_` marks known
  // ids. Dense `ids_` lists present members for O(1) random selection.
  std::vector<Member> table_;
  std::vector<std::uint8_t> present_;
  std::vector<NodeId> ids_;
  std::size_t member_count_ = 0;
  std::size_t faulty_count_ = 0;

  std::vector<PendingProbe> pending_;
  std::vector<PendingRelay> relays_;
  std::vector<OutUpdate> outbox_;
};

}  // namespace gossip
