// Sharded parallel round driver over a FlatSendForgetCluster.
//
// Nodes are partitioned into `shard_count` contiguous *logical* shards.
// Logical shards are the unit of determinism: each has its own RNG stream,
// live list and mailboxes. Execution is carried by `thread_count` worker
// threads (default: one per shard), each of which owns a contiguous block
// of shards and runs them in fixed ascending order — so the action schedule
// is a pure function of (seed, shard_count) and the final state is
// bit-identical for *any* worker-thread count. Each round runs in two
// phases, separated by barriers:
//
//   phase A (initiate): each shard performs one initiate-action per live
//     node it owns, drawing initiators uniformly (with replacement) from
//     its own live set. Message loss is sampled at send time from the
//     shard's RNG. Surviving intra-shard messages are delivered inline;
//     surviving cross-shard messages are appended to the (sender, receiver)
//     mailbox as fixed-size batch frames.
//   -- barrier --
//   phase B (drain): each shard drains its inbound mailboxes in sender-
//     shard order, walking whole frames per destination run, and delivers
//     every message to its own nodes (messages to nodes that died in
//     flight are dropped, like loss — the sender cannot tell).
//   -- barrier --
//   [phase C (observe), only on sampling rounds when observers are
//     attached: the first worker probes the quiescent cluster and feeds
//     the time-series recorder / invariant watchdog while the other
//     workers wait at a third barrier. Whether a round samples is a pure
//     function of the global round index and the observation stride, so
//     every thread takes the same barrier count.]
//
// Why this is faithful to the paper's model: S&F actions are nonatomic and
// the network may lose or delay any message (§4), so deferring cross-shard
// delivery to the end of the round is indistinguishable from network
// latency, and dropping messages to dead nodes is indistinguishable from
// loss. The even-degree invariant (Obs 5.1) is purely node-local and holds
// under any interleaving. What changes vs RoundDriver is only the action
// *schedule*: per-round initiate counts are stratified per shard (each live
// node initiates once per round in expectation, exactly as §6.5 defines a
// round) and receives land at round granularity. Degree distributions match
// statistically (asserted in tests/test_sharded_driver.cpp).
//
// Determinism contract: for a fixed (seed, shard_count) the entire run —
// every view slot, tag, degree and counter — is bit-identical across
// executions regardless of OS thread scheduling *and* of thread_count
// (pinned in tests). Each shard's RNG is an independent stream derived from
// (seed, shard index); mailboxes are single-writer single-reader per
// (src, dst) pair with barrier-enforced handover (a worker that owns both
// ends simply hands the frames to itself); drain order is fixed. Results
// *do* depend on shard_count (a different partition is a different, equally
// valid schedule).
//
// All protocol and network counters live in an obs::MetricsRegistry (one
// cache-line-padded slab per shard, unsynchronized increments, fixed-order
// merge), so the registry dump inherits the same determinism contract.
// Observation draws nothing from any RNG stream and never mutates protocol
// state, so attaching observers leaves the fingerprint unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "core/flat_send_forget.hpp"
#include "core/metrics.hpp"
#include "obs/oracle/flight_recorder.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "sim/fault_plane.hpp"
#include "sim/loss.hpp"
#include "sim/network.hpp"
#include "sim/observers.hpp"

namespace gossip::sim {

// Fixed-size mailbox frame: a run of FlatPush messages bound for one
// destination shard. Mailboxes grow frame-at-a-time and drain frame-at-a-
// time, so steady-state rounds do no per-message allocation and the drain
// loop walks plain arrays.
inline constexpr std::size_t kFrameCapacity = 32;
struct BatchFrame {
  std::uint32_t count = 0;
  FlatPush messages[kFrameCapacity];
};

// A (src, dst) mailbox: written only by src's worker in phase A, read only
// by dst's worker in phase B; the round barriers are the synchronization
// points of this single-producer single-consumer handoff. Frames are
// recycled across rounds (clear() just rewinds the cursor), so the frame
// vector reaches steady-state capacity after the first few rounds.
struct alignas(64) FrameMailbox {
  std::vector<BatchFrame> frames;
  std::size_t used = 0;  // frames in flight this round

  void push(const FlatPush& message) {
    if (used == 0 || frames[used - 1].count == kFrameCapacity) {
      if (used == frames.size()) frames.emplace_back();
      frames[used].count = 0;
      ++used;
    }
    BatchFrame& frame = frames[used - 1];
    frame.messages[frame.count++] = message;
  }
  void clear() { used = 0; }
  [[nodiscard]] std::size_t message_count() const {
    if (used == 0) return 0;
    return (used - 1) * kFrameCapacity + frames[used - 1].count;
  }
};

struct ShardedDriverConfig {
  // Number of logical shards — the determinism unit. Must be >= 1. The
  // schedule, RNG streams and fingerprints depend on this (and the seed)
  // only.
  std::size_t shard_count = 1;
  // Worker threads executing the shards; 0 means one thread per shard.
  // Must be <= shard_count (a worker owns a contiguous block of shards).
  // Purely an execution knob: any value yields bit-identical results.
  std::size_t thread_count = 0;
  // Uniform i.i.d. loss probability per message (§4.1's model). Ignored
  // when `loss_model` is set.
  double loss_rate = 0.0;
  // Optional non-uniform ambient loss (LossModel parity with the serial
  // drivers): called once per shard at construction to build that shard's
  // private model — per-shard channels, the same blocking kDegradeShard
  // uses — whose draws come from the shard's own RNG stream, preserving
  // the determinism contract. Leave empty for the scalar fast path.
  std::function<std::unique_ptr<LossModel>(std::size_t shard)> loss_model{};
  // Root seed; shard i draws from the independent stream (seed, i).
  std::uint64_t seed = 1;
  // When false, every counter write is compiled out of the round hot path
  // (the "no-op sink" baseline bench_report measures registry overhead
  // against); metrics accessors then read as zero. Counting never touches
  // any RNG stream, so the action schedule — and the cluster fingerprint —
  // is identical either way.
  bool count_metrics = true;
};

class ShardedDriver : private ObserverSet {
 public:
  // Borrows the cluster; it must outlive the driver. The cluster's node
  // count is fixed for the driver's lifetime (kill/revive churn only).
  ShardedDriver(FlatSendForgetCluster& cluster, ShardedDriverConfig config);

  // Runs `rounds` rounds. Spawns thread_count - 1 worker threads (the
  // calling thread drives the first shard block) and joins them before
  // returning.
  void run_rounds(std::uint64_t rounds);

  // Runs at most `max_rounds` rounds in idle-skip mode and stops early at
  // quiescence: a round in which no shard produced a message and every
  // live node's view is empty (a decayed cluster can never wake itself
  // up). Degree-0 initiators skip their slot draws entirely — a different
  // (but still deterministic) draw schedule from run_rounds, which is why
  // the mode is opt-in per call rather than a config flag. Returns the
  // number of rounds actually executed.
  std::uint64_t run_to_quiescence(std::uint64_t max_rounds);

  // --- churn; only legal between run_rounds calls ---
  void kill(NodeId u);
  void revive(NodeId u);
  // The dedicated churn stream (stream index shard_count), so churn draws
  // never perturb any shard's round stream.
  [[nodiscard]] Rng& churn_rng() { return churn_rng_; }

  [[nodiscard]] const FlatSendForgetCluster& cluster() const {
    return cluster_;
  }
  [[nodiscard]] const ShardedDriverConfig& config() const { return config_; }
  // Owning shard of node u (contiguous ranges of ceil(n / shard_count)).
  // On the message hot path this is a multiply-shift (Lemire's exact
  // division-by-invariant for 32-bit operands), not an integer division.
  [[nodiscard]] std::size_t shard_of(NodeId u) const {
    if (nodes_per_shard_ == 1) return u;
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(shard_magic_) * u) >> 64);
  }
  // Effective worker-thread count (config.thread_count, defaulted).
  [[nodiscard]] std::size_t thread_count() const { return threads_; }

  [[nodiscard]] std::uint64_t actions_executed() const;
  // Rounds completed over the driver's lifetime (the observation clock).
  [[nodiscard]] std::uint64_t rounds_completed() const {
    return rounds_completed_;
  }
  // Aggregated across shards; both are views over the metrics registry.
  [[nodiscard]] NetworkMetrics network_metrics() const;
  [[nodiscard]] ProtocolMetrics protocol_metrics() const;
  [[nodiscard]] obs::CumulativeCounters cumulative_counters() const;

  // --- observability (attach before run_rounds; borrowed, may be null).
  // Observers run in the phase-C barrier, on the first worker while every
  // other worker waits, in ObserverSet's fixed order. All mailboxes are
  // drained by then, so the watchdog checks conservation exactly. ---

  [[nodiscard]] obs::MetricsRegistry& metrics_registry() { return registry_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics_registry() const {
    return registry_;
  }
  using ObserverSet::attach_time_series;
  using ObserverSet::attach_watchdog;
  void attach_profiler(obs::PhaseProfiler* profiler);
  // Theory-oracle drift detection: the oracle gets the probe, the per-id
  // occurrence census, and the cumulative counters at each phase-C sample.
  // Registers drift gauges in the driver's registry.
  void attach_oracle(obs::TheoryOracle* oracle);
  // Protocol event recording; the recorder's shard_count must equal the
  // driver's. Recording draws no RNG and never changes the fingerprint.
  void attach_flight_recorder(obs::FlightRecorder* recorder);
  // Scripted link-level fault injection. The plane must have been built
  // with this driver's (node_count, shard_count) blocking; each shard gets
  // its own Context so burst chains are per-shard channels. While no phase
  // is active the plane draws no RNG, so an attached-but-idle plane leaves
  // the fingerprint bit-identical (pinned in tests/test_fault_plane.cpp).
  void attach_fault_plane(const FaultPlane* plane);
  // Degradation-window / time-to-recover tracking at each phase-C probe;
  // feeds on the probe, the cluster, and whatever watchdog / oracle are
  // attached. Registers recovery_* gauges.
  void attach_recovery(obs::RecoveryTracker* tracker);
  // Online §6.3 retuning: the controller sees the cumulative counters at
  // each phase-C probe, after the oracle it is bound to has observed. Every
  // other worker waits at the phase barrier meanwhile, so its actuator may
  // mutate cluster configuration (set_min_degree) safely. Draws no RNG
  // (pinned in tests/test_retune.cpp).
  using ObserverSet::attach_retune;
  // Streaming telemetry export: the streamer must borrow this driver's
  // metrics_registry(). Capture draws no RNG — the fingerprint stays
  // bit-identical with a streamer attached (pinned in
  // tests/test_export.cpp).
  void attach_streamer(obs::SnapshotStreamer* streamer);
  // Sampling cadence for the observe phase; independent of any RNG stream.
  using ObserverSet::set_observation_stride;

 private:
  // Registry counter layout; indices into each shard's counter slab.
  enum Counter : std::uint32_t {
    kActions = 0,
    kSelfLoops,
    kDuplications,
    kDeletions,
    kSent,
    kLost,
    kDelivered,
    kToDead,
    kFaulted,
    kIdsAccepted,
    kCounterCount,
  };

  // Per-shard hot state, padded so shards never share a cache line. The
  // counters live in the registry, fetched at each phase-end flush.
  struct alignas(64) Shard {
    Rng rng{0};
    std::vector<NodeId> live;   // dense live ids owned by this shard
    // Per-shard ambient loss model (null = scalar loss_rate fast path).
    std::unique_ptr<LossModel> loss;
    // Per-shard fault-plane state (burst chains, active-phase cache).
    FaultPlane::Context fault_ctx;
    // Quiescence flag for this shard's last phase A; written by the owning
    // worker before the phase barrier, read by every worker after it.
    std::uint8_t quiet = 0;
  };

  // Phase-local counter accumulator: counts live in registers / hot stack
  // for the duration of a phase and are flushed to the shard's registry
  // slab once at phase end, so counting costs register adds rather than
  // per-event memory traffic (the < 2% registry overhead budget).
  struct LocalCounts {
    std::uint64_t self_loops = 0;
    std::uint64_t duplications = 0;
    std::uint64_t deletions = 0;
    std::uint64_t lost = 0;
    std::uint64_t delivered = 0;
    std::uint64_t to_dead = 0;
    std::uint64_t faulted = 0;
    std::uint64_t ids_accepted = 0;
  };

  // kCount = config_.count_metrics and kRecord = (flight recorder
  // attached), both lifted to template parameters so the baseline hot path
  // carries neither a per-increment nor a per-event branch (the same
  // no-op-sink pattern, now a 2x2 dispatch in run_rounds).
  template <bool kCount, bool kRecord>
  void initiate_phase(std::size_t shard, std::uint64_t round, bool quiesce);
  template <bool kCount, bool kRecord>
  void drain_phase(std::size_t shard, std::uint64_t round);
  template <bool kCount, bool kRecord>
  void deliver(std::size_t shard, const FlatPush& message, LocalCounts& lc,
               std::uint64_t round, obs::FlightRecorder::ShardWriter* writer);
  template <bool kCount, bool kRecord>
  std::uint64_t run_rounds_impl(std::uint64_t rounds, bool quiesce);
  std::uint64_t run_rounds_dispatch(std::uint64_t rounds, bool quiesce);
  // Runs on the first worker's thread while every other worker waits at
  // the phase-C barrier (single-threaded: simply between rounds).
  void observe_round(std::uint64_t round);
  [[nodiscard]] bool all_quiet() const {
    for (const Shard& sh : shards_) {
      if (sh.quiet == 0) return false;
    }
    return true;
  }

  // Worker w owns the contiguous shard block [shard_lo(w), shard_hi(w)).
  [[nodiscard]] std::size_t shard_lo(std::size_t worker) const {
    return worker * shards_per_worker_;
  }
  [[nodiscard]] std::size_t shard_hi(std::size_t worker) const {
    const std::size_t hi = (worker + 1) * shards_per_worker_;
    return hi < config_.shard_count ? hi : config_.shard_count;
  }

  [[nodiscard]] FrameMailbox& outbox(std::size_t src, std::size_t dst) {
    return mailboxes_[src * config_.shard_count + dst];
  }

  FlatSendForgetCluster& cluster_;
  ShardedDriverConfig config_;
  std::size_t threads_;            // effective worker threads
  std::size_t shards_per_worker_;  // ceil(shard_count / threads_)
  std::size_t nodes_per_shard_;
  std::uint64_t shard_magic_;      // 2^64 / nodes_per_shard_, rounded up
  obs::MetricsRegistry registry_;
  obs::GaugeId live_gauge_;
  obs::GaugeId round_gauge_;
  std::vector<Shard> shards_;
  std::vector<FrameMailbox> mailboxes_;      // shard_count^2, row = src
  std::vector<std::uint32_t> live_pos_;      // id -> index in its shard list
  Rng churn_rng_;
  std::uint64_t rounds_completed_ = 0;

  obs::PhaseProfiler* profiler_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
  const FaultPlane* fault_plane_ = nullptr;
  // Ring-wrap visibility: set per shard from recorder_->dropped(s) at each
  // probe (gauges merge by sum), so silent ring truncation shows up in
  // snapshots. Registered by attach_flight_recorder.
  obs::GaugeId recorder_wrapped_gauge_{};
  // Probe-time degree histograms (satellite of the oracle work: the
  // registry's histogram path finally has a producer).
  obs::HistogramId outdegree_hist_{};
  obs::HistogramId indegree_hist_{};
  obs::PhaseId ph_initiate_{};
  obs::PhaseId ph_drain_{};
  obs::PhaseId ph_barrier_{};
  obs::PhaseId ph_observe_{};
};

}  // namespace gossip::sim
