#include "sim/network.hpp"

#include <utility>

namespace gossip::sim {

// The send-side fate of one message on the serial networks, in their fixed
// draw order: a dead or unknown receiver (no draw), then the fault plane,
// then ambient loss. A dropped message is counted and recorded on `id`,
// and the result is false; true means it goes on to delivery.
//
// It reads the network's members itself (hence the friend template) rather
// than taking them as arguments: the argument form made the compiler load
// and spill every member around the receiver-liveness call, which cost
// about 6% of simulate_churn_50k's actions/s (4-vCPU Xeon, gcc 12, -O2).
struct SendFate {
  template <typename Network>
  static bool survives(Network& net, const Message& message,
                       std::uint64_t id) {
    const auto drop = [&](std::uint64_t& counter, NodeId a, NodeId b,
                          obs::FlightEventKind kind) {
      ++counter;
      if (net.recorder_ != nullptr) {
        net.recorder_->record(0, {id, net.record_round_, a, b, kind});
      }
      return false;
    };
    if (message.to >= net.cluster_.size() || !net.cluster_.live(message.to)) {
      return drop(net.metrics_.to_dead, message.to, message.from,
                  obs::FlightEventKind::kToDead);
    }
    if (net.fault_plane_ != nullptr &&
        net.fault_plane_->drop(message.from, message.to, net.record_round_,
                               net.rng_, net.fault_ctx_)) {
      return drop(net.metrics_.faulted, message.from, message.to,
                  obs::FlightEventKind::kFaultDrop);
    }
    if (net.loss_.drop(net.rng_)) {
      return drop(net.metrics_.lost, message.from, message.to,
                  obs::FlightEventKind::kLose);
    }
    return true;
  }
};

DirectNetwork::DirectNetwork(Cluster& cluster, LossModel& loss, Rng& rng)
    : cluster_(cluster), loss_(loss), rng_(rng) {}

void DirectNetwork::send(Message message) {
  // The receiver's object and row are fetched while the fate draws run.
  if (message.to < cluster_.size()) cluster_.prefetch_node(message.to);
  ++metrics_.sent;
  std::uint64_t id = 0;
  // No kSend event: delivery is inline, so the fate event recorded below
  // (to-dead / lose / deliver) carries the same fields. QueuedNetwork keeps
  // kSend because there a message is genuinely in flight until its
  // scheduled delivery fires.
  if (recorder_ != nullptr) {
    id = recorder_->begin_message(0);
  }
  if (!SendFate::survives(*this, message, id)) {
    return;
  }
  ++metrics_.delivered;
  if (recorder_ != nullptr) {
    recorder_->record(0, {id, record_round_, message.to, message.from,
                          obs::FlightEventKind::kDeliver});
  }
  cluster_.node(message.to).on_message(message, rng_, *this);
}

QueuedNetwork::QueuedNetwork(Cluster& cluster, LossModel& loss, Rng& rng,
                             EventQueue& queue, LatencyModel latency)
    : cluster_(cluster), loss_(loss), rng_(rng), queue_(queue),
      latency_(latency) {}

void QueuedNetwork::send(Message message) {
  ++metrics_.sent;
  std::uint64_t id = 0;
  if (recorder_ != nullptr) {
    id = recorder_->begin_message(0);
    recorder_->record(0, {id, record_round_, message.from, message.to,
                          obs::FlightEventKind::kSend});
  }
  if (!SendFate::survives(*this, message, id)) {
    return;
  }
  if (latency_.duplicate_rate > 0.0 &&
      rng_.bernoulli(latency_.duplicate_rate)) {
    ++metrics_.duplicated;
    if (recorder_ != nullptr) {
      recorder_->record(0, {id, record_round_, message.from, message.to,
                            obs::FlightEventKind::kDuplicate});
    }
    schedule_delivery(message, id);
  }
  schedule_delivery(std::move(message), id);
}

void QueuedNetwork::schedule_delivery(Message message,
                                      std::uint64_t message_id) {
  const SimTime arrival = queue_.now() + latency_.sample(rng_);
  queue_.schedule(arrival, [this, msg = std::move(message), message_id]() {
    if (msg.to >= cluster_.size() || !cluster_.live(msg.to)) {
      ++metrics_.to_dead;
      if (recorder_ != nullptr) {
        recorder_->record(0, {message_id, record_round_, msg.to, msg.from,
                              obs::FlightEventKind::kToDead});
      }
      return;
    }
    ++metrics_.delivered;
    if (recorder_ != nullptr) {
      recorder_->record(0, {message_id, record_round_, msg.to, msg.from,
                            obs::FlightEventKind::kDeliver});
    }
    cluster_.node(msg.to).on_message(msg, rng_, *this);
  });
}

}  // namespace gossip::sim
