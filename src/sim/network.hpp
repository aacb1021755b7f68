// Network layers: apply the loss model and route messages to protocols.
//
// `DirectNetwork` delivers synchronously (used by the serialized round
// driver that mirrors the paper's analysis model); `QueuedNetwork` schedules
// deliveries on an EventQueue with sampled latency (used by the concurrent
// event-driven simulator).
#pragma once

#include <cstdint>
#include <functional>

#include "common/rng.hpp"
#include "core/messages.hpp"
#include "obs/oracle/flight_recorder.hpp"
#include "sim/cluster.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault_plane.hpp"
#include "sim/loss.hpp"

namespace gossip::sim {

// The send-side fate step both serial networks share (network.cpp).
struct SendFate;

struct NetworkMetrics {
  std::uint64_t sent = 0;
  std::uint64_t lost = 0;
  std::uint64_t delivered = 0;
  // Messages addressed to dead nodes (silently dropped, like loss — the
  // sender cannot tell the difference, which is the paper's point).
  std::uint64_t to_dead = 0;
  // Extra deliveries caused by network-level packet duplication
  // (QueuedNetwork only; robustness extension beyond the paper's model).
  std::uint64_t duplicated = 0;
  // Drops injected by an attached FaultPlane (scripted faults, kept apart
  // from ambient `lost` so runs can tell injection from background loss).
  std::uint64_t faulted = 0;

  [[nodiscard]] double loss_rate() const {
    return sent == 0 ? 0.0 : static_cast<double>(lost) /
                                 static_cast<double>(sent);
  }
};

// Synchronous network: send() either drops the message or immediately
// invokes the receiver's on_message (which may recursively send more
// messages through this same transport — e.g. baseline replies).
class DirectNetwork final : public Transport {
 public:
  DirectNetwork(Cluster& cluster, LossModel& loss, Rng& rng);

  void send(Message message) override;

  [[nodiscard]] const NetworkMetrics& metrics() const { return metrics_; }

  // Flight recording at the transport boundary: send / lose / deliver /
  // to-dead events land in `recorder`'s shard 0 ring (these drivers are
  // single-threaded). Receiver-side outcomes (deletion) are not visible
  // through on_message, so unlike the ShardedDriver no kDelete events are
  // recorded here. Recording draws no RNG.
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    recorder_ = recorder;
  }
  // The round stamped on subsequent events (the drivers bump this; the
  // transport has no round clock of its own).
  void set_record_round(std::uint64_t round) {
    record_round_ = static_cast<std::uint32_t>(round);
  }

  // Attach a scripted fault plane; the link check runs before the ambient
  // loss draw and uses the same round clock as the flight recorder (the
  // drivers bump it every round when a plane is attached). Pass nullptr to
  // detach.
  void set_fault_plane(const FaultPlane* plane) {
    fault_plane_ = plane;
    if (plane != nullptr) fault_ctx_ = plane->make_context();
  }

 private:
  friend struct SendFate;

  Cluster& cluster_;
  LossModel& loss_;
  Rng& rng_;
  NetworkMetrics metrics_;
  obs::FlightRecorder* recorder_ = nullptr;
  std::uint32_t record_round_ = 0;
  const FaultPlane* fault_plane_ = nullptr;
  FaultPlane::Context fault_ctx_;
};

// Latency distribution for the event-driven simulator.
struct LatencyModel {
  double min_latency = 0.5;
  double max_latency = 1.5;
  // Probability that a delivered message is delivered a second time
  // (packet duplication — real networks do this; the protocol must cope).
  double duplicate_rate = 0.0;

  [[nodiscard]] double sample(Rng& rng) const {
    return min_latency + (max_latency - min_latency) * rng.uniform_double();
  }
};

// Asynchronous network: send() samples loss immediately; surviving messages
// are delivered after a sampled latency via the event queue. Deliveries to
// nodes that died in flight are dropped at delivery time. With a nonzero
// duplicate_rate a surviving message may additionally be delivered twice,
// at independent latencies.
class QueuedNetwork final : public Transport {
 public:
  QueuedNetwork(Cluster& cluster, LossModel& loss, Rng& rng,
                EventQueue& queue, LatencyModel latency = {});

  void send(Message message) override;

  [[nodiscard]] const NetworkMetrics& metrics() const { return metrics_; }

  // Same contract as DirectNetwork::set_flight_recorder; a network-level
  // packet duplication records a kDuplicate on the same message id, and
  // delivery events are stamped with the round current at *delivery* time.
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    recorder_ = recorder;
  }
  void set_record_round(std::uint64_t round) {
    record_round_ = static_cast<std::uint32_t>(round);
  }

  // Same contract as DirectNetwork::set_fault_plane. The fault fate is
  // sampled at *send* time (the link eats the packet), never on the queued
  // delivery leg.
  void set_fault_plane(const FaultPlane* plane) {
    fault_plane_ = plane;
    if (plane != nullptr) fault_ctx_ = plane->make_context();
  }

 private:
  friend struct SendFate;

  void schedule_delivery(Message message, std::uint64_t message_id);

  Cluster& cluster_;
  LossModel& loss_;
  Rng& rng_;
  EventQueue& queue_;
  LatencyModel latency_;
  NetworkMetrics metrics_;
  obs::FlightRecorder* recorder_ = nullptr;
  std::uint32_t record_round_ = 0;
  const FaultPlane* fault_plane_ = nullptr;
  FaultPlane::Context fault_ctx_;
};

}  // namespace gossip::sim
