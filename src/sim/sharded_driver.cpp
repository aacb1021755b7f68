#include "sim/sharded_driver.hpp"

#include <algorithm>
#include <barrier>
#include <cassert>
#include <optional>
#include <stdexcept>
#include <thread>

namespace gossip::sim {

ShardedDriver::ShardedDriver(FlatSendForgetCluster& cluster,
                             ShardedDriverConfig config)
    : cluster_(cluster),
      config_(config),
      registry_(config.shard_count == 0 ? 1 : config.shard_count),
      churn_rng_(Rng::stream(config.seed, config.shard_count)) {
  if (config_.shard_count == 0) {
    throw std::invalid_argument("shard_count must be >= 1");
  }
  threads_ = config_.thread_count == 0 ? config_.shard_count
                                       : config_.thread_count;
  if (threads_ > config_.shard_count) {
    throw std::invalid_argument("thread_count must be <= shard_count");
  }
  if (config_.loss_rate < 0.0 || config_.loss_rate > 1.0) {
    throw std::invalid_argument("loss_rate must be >= 0 and <= 1");
  }
  // Counter registration order must match the Counter enum: the hot path
  // indexes the slab directly.
  static constexpr const char* kCounterNames[kCounterCount] = {
      "actions_initiated", "self_loop_actions", "duplications",
      "deletions",         "messages_sent",     "messages_lost",
      "messages_delivered", "messages_to_dead", "messages_faulted",
      "ids_accepted",
  };
  for (std::uint32_t i = 0; i < kCounterCount; ++i) {
    const obs::CounterId id = registry_.counter(kCounterNames[i]);
    assert(id.index == i);
    (void)id;
  }
  live_gauge_ = registry_.gauge("live_nodes");
  round_gauge_ = registry_.gauge("round");
  // Probe-time degree histograms, one bucket per degree value (indegree is
  // unbounded above; the implicit +inf bucket catches the overflow the
  // probe folds into its last cell).
  const auto degree_bounds = [](std::size_t max_degree) {
    std::vector<double> bounds;
    bounds.reserve(max_degree + 1);
    for (std::size_t d = 0; d <= max_degree; ++d) {
      bounds.push_back(static_cast<double>(d));
    }
    return bounds;
  };
  outdegree_hist_ =
      registry_.histogram("outdegree", degree_bounds(cluster_.view_size()));
  indegree_hist_ =
      registry_.histogram("indegree", degree_bounds(2 * cluster_.view_size()));
  const std::size_t n = cluster_.size();
  nodes_per_shard_ =
      (n + config_.shard_count - 1) / config_.shard_count;  // ceil
  // Exact division-by-invariant (Lemire): for 32-bit u and d >= 2,
  // floor(u / d) == high64(u * (2^64 / d rounded up)). d == 1 is the
  // identity branch in shard_of.
  shard_magic_ = nodes_per_shard_ > 1
                     ? ~std::uint64_t{0} / nodes_per_shard_ + 1
                     : 0;
#ifndef NDEBUG
  for (std::size_t u = 0; u < n; u += (n / 64) + 1) {
    assert(shard_of(static_cast<NodeId>(u)) == u / nodes_per_shard_);
  }
  assert(shard_of(static_cast<NodeId>(n - 1)) == (n - 1) / nodes_per_shard_);
#endif
  shards_.resize(config_.shard_count);
  mailboxes_.resize(config_.shard_count * config_.shard_count);
  live_pos_.assign(n, 0);
  for (std::size_t s = 0; s < config_.shard_count; ++s) {
    shards_[s].rng = Rng::stream(config_.seed, s);
    if (config_.loss_model) {
      shards_[s].loss = config_.loss_model(s);
    }
  }
  for (NodeId u = 0; u < n; ++u) {
    if (!cluster_.live(u)) continue;
    auto& live = shards_[shard_of(u)].live;
    live_pos_[u] = static_cast<std::uint32_t>(live.size());
    live.push_back(u);
  }
}

void ShardedDriver::attach_profiler(obs::PhaseProfiler* profiler) {
  profiler_ = profiler;
  if (profiler != nullptr) {
    ph_initiate_ = profiler->phase("initiate");
    ph_drain_ = profiler->phase("drain");
    ph_barrier_ = profiler->phase("barrier_wait");
    // Each worker's probe slice, on the first shard of its block.
    ph_probe_ = profiler->phase("probe");
    // The merge and the observers run on the first worker on behalf of the
    // whole cluster; labeling them a coordinator phase keeps reports from
    // attributing all of their time to shard 0's workload.
    ph_observe_ = profiler->phase("observe", /*coordinator=*/true);
  }
}

void ShardedDriver::attach_oracle(obs::TheoryOracle* oracle) {
  ObserverSet::attach_oracle(oracle);
  if (oracle != nullptr) oracle->bind_registry(&registry_, 0);
}

void ShardedDriver::attach_flight_recorder(obs::FlightRecorder* recorder) {
  if (recorder != nullptr &&
      recorder->shard_count() != config_.shard_count) {
    throw std::invalid_argument(
        "flight recorder shard_count must match the driver's");
  }
  recorder_ = recorder;
  if (recorder != nullptr) {
    // Ring-wrap visibility: a gauge that tracks how many events each
    // shard's ring has overwritten.
    recorder_wrapped_gauge_ = registry_.gauge("recorder_wrapped");
  }
}

void ShardedDriver::attach_fault_plane(const FaultPlane* plane) {
  if (plane != nullptr && plane->node_count() != cluster_.size()) {
    throw std::invalid_argument(
        "fault plane node_count must match the cluster's");
  }
  fault_plane_ = plane;
  for (std::size_t s = 0; s < config_.shard_count; ++s) {
    shards_[s].fault_ctx =
        plane != nullptr ? plane->make_context() : FaultPlane::Context{};
  }
}

void ShardedDriver::attach_streamer(obs::SnapshotStreamer* streamer) {
  if (streamer != nullptr && &streamer->registry() != &registry_) {
    throw std::invalid_argument(
        "snapshot streamer must borrow this driver's metrics registry");
  }
  ObserverSet::attach_streamer(streamer);
}

void ShardedDriver::attach_recovery(obs::RecoveryTracker* tracker) {
  ObserverSet::attach_recovery(tracker);
  if (tracker != nullptr) tracker->bind_registry(&registry_, 0);
}

template <bool kCount, bool kRecord>
void ShardedDriver::initiate_phase(std::size_t shard,
                                   [[maybe_unused]] std::uint64_t round,
                                   bool quiesce) {
  Shard& sh = shards_[shard];
  Rng& rng = sh.rng;
  const std::size_t k = sh.live.size();
  const double loss = config_.loss_rate;
  // Hoisted: all fixed for the whole phase, so the per-message checks are
  // perfectly predicted branches when the feature is not in use.
  LossModel* const loss_model = sh.loss.get();
  const FaultPlane* const plane = fault_plane_;
  const bool single_shard = config_.shard_count == 1;
  [[maybe_unused]] const auto r32 = static_cast<std::uint32_t>(round);
  // Burst cursor: amortizes the recorder's pointer chasing over the whole
  // phase (flushes counters back on scope exit).
  std::optional<obs::FlightRecorder::ShardWriter> writer;
  if constexpr (kRecord) writer.emplace(*recorder_, shard);
  FlatPush msg;
  LocalCounts lc;
  std::uint64_t produced = 0;
  // Nothing in phase A changes liveness (churn happens between run_rounds
  // calls; inline delivery never kills), so drawing the round's k picks
  // before the first action leaves them i.i.d. uniform over the live set;
  // it only moves the picks' draws ahead of the actions' own. With the
  // schedule known, the row of pick a + kAhead is fetched while pick a runs.
  constexpr std::size_t kAhead = 4;
  std::vector<NodeId>& picks = sh.picks;
  picks.resize(k);
  for (NodeId& u : picks) u = sh.live[rng.uniform(k)];
  for (std::size_t a = 0; a < std::min(k, kAhead); ++a) {
    cluster_.prefetch_node(picks[a]);
  }
  for (std::size_t a = 0; a < k; ++a) {
    if (a + kAhead < k) cluster_.prefetch_node(picks[a + kAhead]);
    const NodeId u = picks[a];
    if (quiesce && cluster_.degree(u) == 0) {
      // Idle skip: a degree-0 node's action is a guaranteed self-loop, so
      // skip its slot draws entirely (still one action / one self-loop in
      // the counters). Only taken in quiescence mode, where the altered
      // draw schedule is part of the mode's contract.
      if constexpr (kCount) ++lc.self_loops;
      continue;
    }
    const FlatInitiateResult result = cluster_.initiate(u, rng, msg);
    if (result == FlatInitiateResult::kSelfLoop) {
      // Self-loops are pure no-ops: not recorded (the rate lives in the
      // metrics), so they never crowd message events out of the ring.
      if constexpr (kCount) ++lc.self_loops;
      continue;
    }
    ++produced;
    // An own-shard receiver is delivered inline below: start pulling its
    // row while the fault/loss draws run (on a drop the hint is wasted; the
    // draw order is untouched either way). A cross-shard receiver's row is
    // written by its owner, which prefetches it in drain_phase; hinting it
    // here would only pull the owner's lines over to this core.
    const std::size_t dst = single_shard ? shard : shard_of(msg.to);
    if (dst == shard) cluster_.prefetch_node(msg.to);
    if constexpr (kCount) {
      if (result == FlatInitiateResult::kSentDuplicated) ++lc.duplications;
    }
    if constexpr (kRecord) {
      // No kSend event: this driver resolves every message's fate within
      // the round, and the fate event (deliver / lose / to-dead) carries
      // the same (id, round, sender, receiver) fields — recording both
      // would double the event volume for zero extra information.
      msg.message_id = writer->begin_message();
      if (result == FlatInitiateResult::kSentDuplicated) {
        writer->record({msg.message_id, r32, u, msg.to,
                        obs::FlightEventKind::kDuplicate});
      }
    }
    // Link-level fault check runs before the ambient loss draw (same order
    // as the serial networks); an idle plane consumes no RNG.
    if (plane != nullptr &&
        plane->drop(u, msg.to, round, rng, sh.fault_ctx)) {
      if constexpr (kCount) ++lc.faulted;
      if constexpr (kRecord) {
        writer->record({msg.message_id, r32, u, msg.to,
                        obs::FlightEventKind::kFaultDrop});
      }
      continue;
    }
    const bool ambient_drop = loss_model != nullptr
                                  ? loss_model->drop(rng)
                                  : loss > 0.0 && rng.bernoulli(loss);
    if (ambient_drop) {
      if constexpr (kCount) ++lc.lost;
      if constexpr (kRecord) {
        writer->record({msg.message_id, r32, u, msg.to,
                        obs::FlightEventKind::kLose});
      }
      continue;
    }
    if (dst == shard) {
      deliver<kCount, kRecord>(shard, msg, lc, round,
                               kRecord ? &*writer : nullptr);
    } else {
      outbox(shard, dst).push(msg);
    }
  }
  if (quiesce) {
    // Quiescent iff this shard can never produce again absent inbound
    // traffic: nothing sent this round and every owned live view empty.
    bool quiet = produced == 0;
    if (quiet) {
      for (const NodeId u : sh.live) {
        if (cluster_.degree(u) != 0) {
          quiet = false;
          break;
        }
      }
    }
    sh.quiet = quiet ? 1 : 0;
  }
  if constexpr (kCount) {
    std::uint64_t* m = registry_.counters(shard);
    m[kActions] += k;  // exactly one action per live node per round
    m[kSelfLoops] += lc.self_loops;
    m[kDuplications] += lc.duplications;
    m[kDeletions] += lc.deletions;
    // Every non-self-loop action sends exactly one message (Fig 5.1), so
    // the sent count is derived rather than counted per action.
    m[kSent] += k - lc.self_loops;
    m[kLost] += lc.lost;
    m[kDelivered] += lc.delivered;
    m[kToDead] += lc.to_dead;
    m[kFaulted] += lc.faulted;
    m[kIdsAccepted] += lc.ids_accepted;
  }
}

template <bool kCount, bool kRecord>
void ShardedDriver::drain_phase(std::size_t shard, std::uint64_t round) {
  LocalCounts lc;
  std::optional<obs::FlightRecorder::ShardWriter> writer;
  if constexpr (kRecord) writer.emplace(*recorder_, shard);
  // Fixed sender-shard order keeps the shard's RNG consumption — and hence
  // the whole run — deterministic. Messages arrive in whole frames: the
  // inner loops walk plain arrays, one destination-shard run at a time.
  for (std::size_t src = 0; src < config_.shard_count; ++src) {
    if (src == shard) continue;
    FrameMailbox& inbound = outbox(src, shard);
    for (std::size_t f = 0; f < inbound.used; ++f) {
      const BatchFrame& frame = inbound.frames[f];
      for (std::uint32_t i = 0; i < frame.count; ++i) {
        // The frame is a plain array, so the receiver of message i + d is
        // known d deliveries in advance — prefetch its row now.
        if (i + 4 < frame.count) {
          cluster_.prefetch_node(frame.messages[i + 4].to);
        }
        deliver<kCount, kRecord>(shard, frame.messages[i], lc, round,
                                 kRecord ? &*writer : nullptr);
      }
    }
    inbound.clear();  // keeps frames; src refills only after the barrier
  }
  if constexpr (kCount) {
    std::uint64_t* m = registry_.counters(shard);
    m[kDeletions] += lc.deletions;
    m[kDelivered] += lc.delivered;
    m[kToDead] += lc.to_dead;
    m[kIdsAccepted] += lc.ids_accepted;
  }
}

template <bool kCount, bool kRecord>
void ShardedDriver::deliver(
    std::size_t shard, const FlatPush& message,
    [[maybe_unused]] LocalCounts& lc, [[maybe_unused]] std::uint64_t round,
    [[maybe_unused]] obs::FlightRecorder::ShardWriter* writer) {
  Shard& sh = shards_[shard];
  assert(shard_of(message.to) == shard);
  [[maybe_unused]] const auto r32 = static_cast<std::uint32_t>(round);
  [[maybe_unused]] const NodeId sender = message.ids[0].id_unchecked();
  if (!cluster_.live(message.to)) {
    // Dead receiver: dropped silently, indistinguishable from loss (§5).
    if constexpr (kCount) ++lc.to_dead;
    if constexpr (kRecord) {
      writer->record({message.message_id, r32, message.to, sender,
                      obs::FlightEventKind::kToDead});
    }
    return;
  }
  if constexpr (kCount) ++lc.delivered;
  if constexpr (kRecord) {
    writer->record({message.message_id, r32, message.to, sender,
                    obs::FlightEventKind::kDeliver});
  }
  [[maybe_unused]] const std::size_t accepted =
      cluster_.receive(message.to, message, sh.rng);
  if constexpr (kCount) {
    lc.ids_accepted += accepted;
    // Any shortfall — full view, or a batched remainder that no longer
    // fits — is one deletion event (== the unpacked accepted == 0 test at
    // p = 1, where accepted is 0 or 2).
    if (accepted < message.count) ++lc.deletions;
  }
  if constexpr (kRecord) {
    if (accepted < message.count) {
      writer->record({message.message_id, r32, message.to, sender,
                      obs::FlightEventKind::kDelete});
    }
  }
}

void ShardedDriver::probe_slice(std::size_t worker) {
  const std::size_t lo = shard_lo(worker);
  const obs::PhaseProfiler::Scope timer(profiler_, ph_probe_, lo);
  probe_.slice(obs::FlatViews(cluster_), worker, first_node(lo),
               first_node(shard_hi(worker)));
}

void ShardedDriver::observe_round(std::uint64_t round) {
  const obs::PhaseProfiler::Scope timer(profiler_, ph_observe_, 0);
  last_probe_ = probe_.merge(obs::FlatViews(cluster_));
  const obs::FlatClusterProbe& probe = last_probe_;
  registry_.set(live_gauge_, 0, static_cast<double>(probe.live_nodes));
  registry_.set(round_gauge_, 0, static_cast<double>(round));
  if (config_.count_metrics) {
    // Fold the probe's degree census into the registry histograms: one
    // bulk bucket update per degree value instead of one observe() per
    // node (shard 0 writes; the merge is summation anyway).
    const auto fold = [this](obs::HistogramId id,
                             const std::vector<std::uint64_t>& hist) {
      for (std::size_t d = 0; d < hist.size(); ++d) {
        if (hist[d] != 0) {
          registry_.observe_n(id, 0, static_cast<double>(d), hist[d]);
        }
      }
    };
    fold(outdegree_hist_, probe.outdegree_hist);
    fold(indegree_hist_, probe.indegree_hist);
  }
  if (recorder_ != nullptr && recorder_wrapped_gauge_.valid()) {
    // Per-shard ring-wrap counts; gauges merge by sum so the merged value
    // is total events overwritten across all rings.
    for (std::size_t s = 0; s < config_.shard_count; ++s) {
      registry_.set(recorder_wrapped_gauge_, s,
                    static_cast<double>(recorder_->dropped(s)));
    }
  }
  // All mailboxes are drained by phase C: conservation is exact.
  observe({.round = round,
           .probe = &probe,
           .counters = cumulative_counters(),
           .flat = &cluster_,
           .nodes_per_shard = nodes_per_shard_,
           .conserved = true});
}

void ShardedDriver::run_rounds(std::uint64_t rounds) {
  rounds_completed_ += run_rounds_dispatch(rounds, /*quiesce=*/false);
}

std::uint64_t ShardedDriver::run_to_quiescence(std::uint64_t max_rounds) {
  const std::uint64_t ran = run_rounds_dispatch(max_rounds, /*quiesce=*/true);
  rounds_completed_ += ran;
  return ran;
}

std::uint64_t ShardedDriver::run_rounds_dispatch(std::uint64_t rounds,
                                                 bool quiesce) {
  if (rounds == 0) return 0;
  if (config_.count_metrics) {
    if (recorder_ != nullptr) {
      return run_rounds_impl<true, true>(rounds, quiesce);
    }
    return run_rounds_impl<true, false>(rounds, quiesce);
  }
  if (recorder_ != nullptr) {
    return run_rounds_impl<false, true>(rounds, quiesce);
  }
  return run_rounds_impl<false, false>(rounds, quiesce);
}

template <bool kCount, bool kRecord>
std::uint64_t ShardedDriver::run_rounds_impl(std::uint64_t rounds,
                                             bool quiesce) {
  const std::uint64_t base = rounds_completed_;
  if (needs_probe()) {
    probe_.prepare(cluster_.size(), threads_, needs_components(),
                   occurrences());
  }
  if (threads_ == 1) {
    // One worker owns every shard; phases still run shard-blocked in
    // ascending order, so the schedule is the multi-thread schedule.
    std::uint64_t ran = 0;
    for (std::uint64_t r = 0; r < rounds; ++r) {
      const std::uint64_t round = base + r + 1;
      for (std::size_t s = 0; s < config_.shard_count; ++s) {
        const obs::PhaseProfiler::Scope timer(profiler_, ph_initiate_, s);
        initiate_phase<kCount, kRecord>(s, round, quiesce);
      }
      for (std::size_t s = 0; s < config_.shard_count; ++s) {
        const obs::PhaseProfiler::Scope timer(profiler_, ph_drain_, s);
        drain_phase<kCount, kRecord>(s, round);
      }
      if (due(round)) {
        probe_slice(0);
        observe_round(round);
      }
      ++ran;
      if (quiesce && all_quiet()) break;
    }
    return ran;
  }

  std::barrier barrier(static_cast<std::ptrdiff_t>(threads_));
  std::uint64_t ran_main = 0;
  const auto worker = [this, rounds, base, quiesce, &barrier,
                       &ran_main](std::size_t w) {
    const std::size_t lo = shard_lo(w);
    const std::size_t hi = shard_hi(w);
    std::uint64_t ran = 0;
    for (std::uint64_t r = 0; r < rounds; ++r) {
      const std::uint64_t round = base + r + 1;
      for (std::size_t s = lo; s < hi; ++s) {
        const obs::PhaseProfiler::Scope timer(profiler_, ph_initiate_, s);
        initiate_phase<kCount, kRecord>(s, round, quiesce);
      }
      {
        const obs::PhaseProfiler::Scope timer(profiler_, ph_barrier_, lo);
        barrier.arrive_and_wait();
      }
      for (std::size_t s = lo; s < hi; ++s) {
        const obs::PhaseProfiler::Scope timer(profiler_, ph_drain_, s);
        drain_phase<kCount, kRecord>(s, round);
      }
      {
        // Second barrier: no shard may start writing next round's mailboxes
        // until every reader has drained this round's.
        const obs::PhaseProfiler::Scope timer(profiler_, ph_barrier_, lo);
        barrier.arrive_and_wait();
      }
      // Phase C: sampling is a pure function of (global round, stride), so
      // every thread agrees on whether these two barriers exist. Every
      // worker probes its own rows; the first merges once all are done.
      if (due(round)) {
        probe_slice(w);
        {
          const obs::PhaseProfiler::Scope timer(profiler_, ph_barrier_, lo);
          barrier.arrive_and_wait();
        }
        if (w == 0) observe_round(round);
        const obs::PhaseProfiler::Scope timer(profiler_, ph_barrier_, lo);
        barrier.arrive_and_wait();
      }
      ++ran;
      if (quiesce) {
        // Every worker reads flags all of which were written before the
        // phase-A barrier, so they agree on the verdict. The extra barrier
        // keeps a worker that continues from writing next round's quiet
        // flags while a slower one is still reading this round's.
        const bool stop = all_quiet();
        {
          const obs::PhaseProfiler::Scope timer(profiler_, ph_barrier_, lo);
          barrier.arrive_and_wait();
        }
        if (stop) break;
      }
    }
    if (w == 0) ran_main = ran;
  };

  std::vector<std::thread> pool;
  pool.reserve(threads_ - 1);
  for (std::size_t w = 1; w < threads_; ++w) {
    pool.emplace_back(worker, w);
  }
  worker(0);
  for (auto& t : pool) t.join();
  return ran_main;
}

void ShardedDriver::kill(NodeId u) {
  if (!cluster_.live(u)) return;
  cluster_.kill(u);
  auto& live = shards_[shard_of(u)].live;
  const std::uint32_t p = live_pos_[u];
  const NodeId last = live.back();
  live[p] = last;
  live_pos_[last] = p;
  live.pop_back();
  if (recorder_ != nullptr) {
    // Churn runs between run_rounds calls on the caller's thread, so
    // writing the owning shard's ring is safe here.
    recorder_->record(shard_of(u),
                      {0, static_cast<std::uint32_t>(rounds_completed_), u,
                       kNilNode, obs::FlightEventKind::kKill});
  }
}

void ShardedDriver::revive(NodeId u) {
  cluster_.revive(u, churn_rng_);
  auto& live = shards_[shard_of(u)].live;
  live_pos_[u] = static_cast<std::uint32_t>(live.size());
  live.push_back(u);
  if (recorder_ != nullptr) {
    recorder_->record(shard_of(u),
                      {0, static_cast<std::uint32_t>(rounds_completed_), u,
                       kNilNode, obs::FlightEventKind::kRevive});
  }
}

std::uint64_t ShardedDriver::actions_executed() const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < config_.shard_count; ++s) {
    total += registry_.counters(s)[kActions];
  }
  return total;
}

obs::CumulativeCounters ShardedDriver::cumulative_counters() const {
  obs::CumulativeCounters c;
  for (std::size_t s = 0; s < config_.shard_count; ++s) {
    const std::uint64_t* m = registry_.counters(s);
    c.actions += m[kActions];
    c.self_loops += m[kSelfLoops];
    c.duplications += m[kDuplications];
    c.deletions += m[kDeletions];
    c.sent += m[kSent];
    c.lost += m[kLost];
    c.delivered += m[kDelivered];
    c.to_dead += m[kToDead];
    c.faulted += m[kFaulted];
    c.ids_accepted += m[kIdsAccepted];
  }
  return c;
}

NetworkMetrics ShardedDriver::network_metrics() const {
  const obs::CumulativeCounters c = cumulative_counters();
  NetworkMetrics total;
  total.sent = c.sent;
  total.lost = c.lost;
  total.delivered = c.delivered;
  total.to_dead = c.to_dead;
  total.faulted = c.faulted;
  return total;
}

ProtocolMetrics ShardedDriver::protocol_metrics() const {
  const obs::CumulativeCounters c = cumulative_counters();
  ProtocolMetrics m;
  m.actions_initiated = c.actions;
  m.self_loop_actions = c.self_loops;
  m.messages_sent = c.sent;
  m.duplications = c.duplications;
  m.messages_received = c.delivered;
  m.deletions = c.deletions;
  // Counted directly (not derived): with batched messages a delivery can
  // be partially accepted, so 2 * (delivered - deletions) is only exact at
  // p = 1.
  m.ids_accepted = c.ids_accepted;
  return m;
}

}  // namespace gossip::sim
