// ArenaDriver: the round-synchronous competition driver for the protocol
// arena (ROADMAP item 4).
//
// The serialized RoundDriver has no round clock a timeout state machine
// could trust (nodes initiate in random order, replies deliver
// recursively), and the sharded flat driver is hard-wired to the packed
// S&F engine. The arena driver closes the gap: it drives the *polymorphic*
// Cluster — S&F, the view-exchange baselines, and the timer-driven
// detectors (SWIM, all-to-all) — on an explicit round clock with scripted
// faults and ambient loss applied to every contender identically.
//
// Execution model, per round r:
//
//   phase A (parallel over shards)  every live node, in id order within
//     its shard, runs on_round(r). Outbound messages sample their fault /
//     loss fate immediately from the sender shard's RNG stream and land in
//     per-(src, dst) shard outboxes.
//   phase B (parallel over destination shards)  each receiver shard
//     drains, in source-shard-major FIFO order, first the replies queued
//     during round r-1's phase B, then round r's phase A traffic. Handlers
//     run with the receiver shard's RNG; messages they send sample their
//     fate now but deliver in round r+1's phase B (one-round latency).
//   phase C (serial)  observation: cluster probe, time series,
//     RecoveryTracker, DetectionTracker.
//
// Determinism contract: node-to-shard blocking is ceil(n / shards) by id
// (the ShardedDriver's mapping), every draw comes from
// Rng::stream(seed, shard), and drain order is a pure function of the
// shard count — so a run is bit-identical for a fixed (seed, shards)
// regardless of the worker thread count. Messages in flight survive the
// death of their sender (the packet already left) and are dropped at
// delivery when the receiver is dead — which makes "killed the round its
// ack was due" a reachable, tested state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_plane.hpp"
#include "sim/network.hpp"
#include "sim/observers.hpp"

namespace gossip::sim {

struct ArenaDriverConfig {
  std::size_t shards = 1;   // determinism unit (fingerprints depend on it)
  std::size_t threads = 1;  // workers executing the shard blocks
  double loss_rate = 0.0;   // ambient i.i.d. loss
  std::uint64_t seed = 1;
};

class ArenaDriver : private ObserverSet {
 public:
  ArenaDriver(Cluster& cluster, ArenaDriverConfig config);

  void run_rounds(std::uint64_t rounds);

  [[nodiscard]] std::uint64_t rounds_completed() const { return round_; }
  [[nodiscard]] std::uint64_t actions_executed() const { return actions_; }
  // Network totals summed over shards (deterministic order).
  [[nodiscard]] NetworkMetrics network_metrics() const;
  [[nodiscard]] Cluster& cluster() { return cluster_; }

  // Churn, applied between rounds (serial). Kills/joins are reported to an
  // attached DetectionTracker. The churn RNG is its own stream, so churn
  // decisions never perturb the shard streams.
  void kill(NodeId id);
  // Revives `id` with a fresh protocol instance seeded with `seed_view`.
  void rejoin(NodeId id, const Cluster::ProtocolFactory& factory,
              const std::vector<NodeId>& seed_view);
  [[nodiscard]] Rng& churn_rng() { return churn_rng_; }

  // Observers (borrowed, may be null; attach before run_rounds). All run
  // in serial phase C, in ObserverSet's fixed order, and draw no RNG.
  // Recovery's connectivity lane is skipped (no flat view graph), and the
  // probe is skipped when only the detection tracker is attached.
  void attach_fault_plane(const FaultPlane* plane);
  using ObserverSet::attach_detection;
  using ObserverSet::attach_recovery;
  using ObserverSet::attach_time_series;
  using ObserverSet::set_observation_stride;

  // Order-insensitive digest of the full world state: liveness, every
  // view's slot contents, every protocol's state_digest(), and the network
  // totals. Two runs are "the same run" iff fingerprints match.
  [[nodiscard]] std::uint64_t fingerprint() const;

 private:
  // One per shard; appends sends to the executing shard's outbox after
  // sampling their fault/loss fate from the shard stream.
  class ShardTransport final : public Transport {
   public:
    void send(Message message) override;

    ArenaDriver* driver = nullptr;
    std::size_t shard = 0;
    std::uint64_t round = 0;
    // Outbox the executing phase appends surviving messages to (phase A:
    // the current frame; phase B: the next frame).
    std::vector<std::vector<Message>>* outbox = nullptr;  // [dst shard]
  };

  [[nodiscard]] std::size_t shard_of(NodeId id) const {
    const std::size_t s = static_cast<std::size_t>(id) / nodes_per_shard_;
    return s < config_.shards ? s : config_.shards - 1;
  }

  void run_phase_a(std::uint64_t round);
  void run_phase_b(std::uint64_t round);

  Cluster& cluster_;
  ArenaDriverConfig config_;
  std::size_t nodes_per_shard_;
  ThreadPool pool_;
  Rng churn_rng_;

  std::vector<Rng> shard_rngs_;
  std::vector<NetworkMetrics> shard_metrics_;
  const FaultPlane* fault_plane_ = nullptr;
  std::vector<FaultPlane::Context> fault_ctxs_;

  // outbox_[src][dst]: phase A traffic of the current round.
  // inflight_[src][dst]: phase B replies of the previous round.
  // next_inflight_[src][dst]: phase B replies of the current round.
  std::vector<std::vector<std::vector<Message>>> outbox_;
  std::vector<std::vector<std::vector<Message>>> inflight_;
  std::vector<std::vector<std::vector<Message>>> next_inflight_;

  std::uint64_t round_ = 0;
  std::uint64_t actions_ = 0;
};

}  // namespace gossip::sim
