#include "core/baselines/push_pull.hpp"

#include <cassert>

namespace gossip {

PushPullKeep::PushPullKeep(NodeId self, const PushPullConfig& config)
    : PeerProtocol(self, config.view_size), config_(config) {}

void PushPullKeep::on_initiate(Rng& rng, Transport& transport) {
  auto& view = mutable_view();
  auto& metrics = mutable_metrics();
  ++metrics.actions_initiated;

  if (view.degree() == 0) {
    ++metrics.self_loop_actions;
    return;
  }
  const NodeId partner = view.entry(view.random_nonempty_slot(rng)).id;

  Message request;
  request.from = self();
  request.to = partner;
  request.kind = MessageKind::kPushPullRequest;
  // Reinforcement: push our own id. It is a *copy* of implicit knowledge,
  // not tagged dependent (it is the representative instance being created).
  request.payload.push_back(ViewEntry{self(), false});
  const auto batch = copy_batch(config_.exchange_length - 1, rng);
  request.payload.insert(request.payload.end(), batch.begin(), batch.end());
  transport.send(std::move(request));
  ++metrics.messages_sent;
}

void PushPullKeep::on_message(const Message& message, Rng& rng,
                              Transport& transport) {
  auto& metrics = mutable_metrics();
  ++metrics.messages_received;

  // Trust boundary: ignore kinds this protocol does not speak.
  if (message.kind != MessageKind::kPushPullRequest &&
      message.kind != MessageKind::kPushPullReply) {
    return;
  }
  if (message.kind == MessageKind::kPushPullReply) {
    merge(message.payload, rng);
    return;
  }
  Message reply;
  reply.from = self();
  reply.to = message.from;
  reply.kind = MessageKind::kPushPullReply;
  reply.payload = copy_batch(config_.exchange_length, rng);
  merge(message.payload, rng);
  if (!reply.payload.empty()) {
    transport.send(std::move(reply));
    ++metrics.messages_sent;
  }
}

std::vector<ViewEntry> PushPullKeep::copy_batch(std::size_t count, Rng& rng) {
  const auto& view = this->view();
  std::vector<ViewEntry> batch;
  if (count == 0 || view.degree() == 0) return batch;
  // Sample distinct slots among the nonempty ones.
  const auto nonempty = view.entries();
  const std::size_t take = std::min(count, nonempty.size());
  for (const std::size_t idx :
       rng.sample_without_replacement(nonempty.size(), take)) {
    ViewEntry copy = nonempty[idx];
    // The original stays in our view; the copy is by construction a
    // duplicate of information our neighbor can also reach through us.
    copy.dependent = true;
    batch.push_back(copy);
  }
  return batch;
}

void PushPullKeep::merge(const std::vector<ViewEntry>& entries, Rng& rng) {
  auto& view = mutable_view();
  auto& metrics = mutable_metrics();
  for (const ViewEntry& entry : entries) {
    // Malformed input (an empty entry included): skip.
    if (!PackedViewEntry::packable(entry.id)) continue;
    if (entry.id == self()) continue;     // no self-edges
    if (view.contains(entry.id)) continue;  // views deduplicate on merge
    if (view.full()) {
      // Replace a random existing entry with the new id.
      const std::size_t victim = view.random_nonempty_slot(rng);
      view.set(victim, entry);
      ++metrics.deletions;
    } else {
      view.set(view.random_empty_slot(rng), entry);
    }
    ++metrics.ids_accepted;
  }
}

}  // namespace gossip
