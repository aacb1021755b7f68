// Abstract membership-protocol interface.
//
// A protocol instance is a pure per-node state machine: it owns its local
// view and counters, and performs I/O only through the Transport handed to
// each step. The same protocol code therefore runs under the serialized
// round driver used for analysis (§4.1's "central entity" model) and under
// the concurrent discrete-event simulator.
//
// Each call into the protocol corresponds to one *step* in the paper's sense
// (§4.1): it executes atomically at a single node, may consume one message,
// may modify the view, and may send messages. Nonatomicity of multi-step
// actions arises from the network layer, which may drop any sent message.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "core/messages.hpp"
#include "core/metrics.hpp"
#include "core/view.hpp"

namespace gossip {

// Outbound message sink provided by the driver/network layer.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual void send(Message message) = 0;
};

// A node's local failure-detection opinion about another id. View-exchange
// protocols only distinguish "in my view" (kAlive) from "not" (kUnknown);
// detector protocols (SWIM, all-to-all heartbeats) add the suspicion
// ladder. Observers (obs::DetectionTracker) treat anything other than
// kAlive as "no longer believed alive".
enum class MemberVerdict : std::uint8_t {
  kAlive = 0,
  kSuspect,
  kFaulty,
  kUnknown,
};

class PeerProtocol {
 public:
  virtual ~PeerProtocol() = default;

  PeerProtocol(const PeerProtocol&) = delete;
  PeerProtocol& operator=(const PeerProtocol&) = delete;

  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] const LocalView& view() const { return view_; }
  [[nodiscard]] const ProtocolMetrics& metrics() const { return metrics_; }

  // One protocol action initiated at this node (a step; any messages it
  // sends go through `transport` and may be lost).
  virtual void on_initiate(Rng& rng, Transport& transport) = 0;

  // Delivery of one message addressed to this node (a receive step).
  virtual void on_message(const Message& message, Rng& rng,
                          Transport& transport) = 0;

  // One tick of the round clock (the arena driver's schedule unit). The
  // default runs one initiated action per round — the paper's §6.5 pacing —
  // which makes every view-exchange protocol arena-compatible unchanged.
  // Timer-driven detectors (SWIM, all-to-all) override this to advance
  // their ack/suspicion deadlines; all randomness must come from `rng` and
  // all timing from `round` (zero wall-clock) so runs replay bit-identically.
  virtual void on_round(std::uint64_t round, Rng& rng, Transport& transport) {
    (void)round;
    on_initiate(rng, transport);
  }

  // Local liveness opinion about `id`. Default: view membership (partial-
  // view protocols hold no opinion about ids outside the view). Detectors
  // override with their member tables.
  [[nodiscard]] virtual MemberVerdict member_verdict(NodeId id) const {
    return view_.contains(id) ? MemberVerdict::kAlive
                              : MemberVerdict::kUnknown;
  }

  // Order-insensitive digest of protocol-private state not visible through
  // the view (timer wheels, incarnations, heartbeat counters). Folded into
  // the arena driver's run fingerprint so determinism gates see detector
  // timer state, not just view contents. 0 for protocols whose whole state
  // is the view.
  [[nodiscard]] virtual std::uint64_t state_digest() const { return 0; }

  // Installs an initial view: up to capacity ids are written into the first
  // slots, tagged independent. Used to load generated topologies. Virtual:
  // full-membership detectors also seed their member tables from `ids`.
  // An override hides the brace-list form unless it adds
  // `using PeerProtocol::install_view;`.
  virtual void install_view(std::span<const NodeId> ids) {
    view_.clear_all();
    const std::size_t count = std::min(ids.size(), view_.capacity());
    for (std::size_t i = 0; i < count; ++i) {
      view_.set(i, ViewEntry{ids[i], /*dependent=*/false});
    }
  }
  void install_view(std::initializer_list<NodeId> ids) {
    install_view(std::span<const NodeId>(ids.begin(), ids.size()));
  }

 protected:
  PeerProtocol(NodeId self, std::size_t view_capacity)
      : self_(self), view_(view_capacity) {}

  LocalView& mutable_view() { return view_; }
  ProtocolMetrics& mutable_metrics() { return metrics_; }

 private:
  NodeId self_;
  LocalView view_;
  ProtocolMetrics metrics_;
};

}  // namespace gossip
