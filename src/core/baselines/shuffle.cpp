#include "core/baselines/shuffle.hpp"

#include <cassert>

namespace gossip {

Shuffle::Shuffle(NodeId self, const ShuffleConfig& config)
    : PeerProtocol(self, config.view_size), config_(config) {}

void Shuffle::on_initiate(Rng& rng, Transport& transport) {
  auto& view = mutable_view();
  auto& metrics = mutable_metrics();
  ++metrics.actions_initiated;

  if (view.degree() == 0) {
    ++metrics.self_loop_actions;
    return;
  }

  // Partner: the id in a random nonempty slot. That slot is always part of
  // the exchanged batch (the edge to the partner is consumed).
  const std::size_t partner_slot = view.random_nonempty_slot(rng);
  const NodeId partner = view.entry(partner_slot).id;

  Message request;
  request.from = self();
  request.to = partner;
  request.kind = MessageKind::kShuffleRequest;

  request.payload.push_back(view.entry(partner_slot));
  view.clear(partner_slot);
  while (request.payload.size() < config_.shuffle_length &&
         view.degree() > 0) {
    const std::size_t slot = view.random_nonempty_slot(rng);
    request.payload.push_back(view.entry(slot));
    view.clear(slot);
  }
  if (config_.send_self && !request.payload.empty()) {
    // Replace the consumed edge-to-partner with the initiator's own id
    // (reinforcement): the partner learns about u, not about itself.
    request.payload.front() = ViewEntry{self(), false};
  }

  transport.send(std::move(request));
  ++metrics.messages_sent;
}

void Shuffle::on_message(const Message& message, Rng& rng,
                         Transport& transport) {
  auto& metrics = mutable_metrics();
  ++metrics.messages_received;
  auto& view = mutable_view();

  // Trust boundary: ignore kinds this protocol does not speak.
  if (message.kind != MessageKind::kShuffleRequest &&
      message.kind != MessageKind::kShuffleReply) {
    return;
  }
  if (message.kind == MessageKind::kShuffleReply) {
    absorb(message.payload, rng);
    return;
  }
  // Remove an equally sized batch from our view and send it back, then
  // store what we received. Entries sent in the reply are deleted here —
  // if the reply is lost, they are gone (the baseline's weakness).
  Message reply;
  reply.from = self();
  reply.to = message.from;
  reply.kind = MessageKind::kShuffleReply;
  for (std::size_t k = 0; k < message.payload.size() && view.degree() > 0;
       ++k) {
    const std::size_t slot = view.random_nonempty_slot(rng);
    reply.payload.push_back(view.entry(slot));
    view.clear(slot);
  }
  absorb(message.payload, rng);
  transport.send(std::move(reply));
  ++metrics.messages_sent;
}

void Shuffle::absorb(const std::vector<ViewEntry>& entries, Rng& rng) {
  // The exchange is an exact swap ([26, 27] operate on multigraphs where
  // self-loops are legal): every received entry is stored, so with no
  // loss the total number of id instances in the system is conserved —
  // the property the paper contrasts against loss-induced decay.
  auto& view = mutable_view();
  auto& metrics = mutable_metrics();
  bool dropped = false;
  for (ViewEntry entry : entries) {
    // Malformed input (an empty entry included): skip.
    if (!PackedViewEntry::packable(entry.id)) continue;
    if (view.full()) {
      dropped = true;
      break;
    }
    if (entry.id == self()) entry.dependent = true;  // self-edge (§2)
    view.set(view.random_empty_slot(rng), entry);
    ++metrics.ids_accepted;
  }
  if (dropped) ++metrics.deletions;
}

}  // namespace gossip
