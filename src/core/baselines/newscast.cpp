#include "core/baselines/newscast.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

namespace gossip {

Newscast::Newscast(NodeId self, const NewscastConfig& config)
    : PeerProtocol(self, config.view_size), config_(config),
      ages_(config.view_size, 0) {}

std::uint64_t Newscast::entry_age(std::size_t slot) const {
  assert(slot < ages_.size());
  const std::uint64_t birth = ages_[slot];
  return clock_ >= birth ? clock_ - birth : 0;
}

std::uint64_t Newscast::max_age() const {
  std::uint64_t worst = 0;
  for (std::size_t slot = 0; slot < view().capacity(); ++slot) {
    if (!view().slot_empty(slot)) worst = std::max(worst, entry_age(slot));
  }
  return worst;
}

std::vector<ViewEntry> Newscast::snapshot_payload() const {
  // Youngest first; our own descriptor (age 0) leads.
  struct Aged {
    ViewEntry entry;
    std::uint64_t age;
  };
  std::vector<Aged> aged;
  for (std::size_t slot = 0; slot < view().capacity(); ++slot) {
    if (view().slot_empty(slot)) continue;
    ViewEntry copy = view().entry(slot);
    copy.dependent = true;  // the original stays in our view
    aged.push_back(Aged{copy, entry_age(slot)});
  }
  std::stable_sort(aged.begin(), aged.end(),
                   [](const Aged& a, const Aged& b) { return a.age < b.age; });
  std::vector<ViewEntry> payload;
  payload.reserve(aged.size() + 1);
  payload.push_back(ViewEntry{self(), false});
  for (const auto& a : aged) payload.push_back(a.entry);
  return payload;
}

void Newscast::merge(const std::vector<ViewEntry>& incoming) {
  struct Candidate {
    ViewEntry entry;
    std::uint64_t age;
  };
  std::vector<Candidate> candidates;
  // Incoming entries arrive youngest-first; approximate their age by
  // position (the sender's absolute clock is not meaningful here).
  for (std::size_t k = 0; k < incoming.size(); ++k) {
    if (!PackedViewEntry::packable(incoming[k].id) ||
        incoming[k].id == self()) {
      continue;
    }
    candidates.push_back(Candidate{incoming[k], k});
  }
  for (std::size_t slot = 0; slot < view().capacity(); ++slot) {
    if (view().slot_empty(slot)) continue;
    candidates.push_back(Candidate{view().entry(slot), entry_age(slot)});
  }
  // Keep the youngest instance of each id.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.age < b.age;
                   });
  std::unordered_map<NodeId, bool> seen;
  auto& view = mutable_view();
  auto& metrics = mutable_metrics();
  const std::size_t previous_degree = view.degree();
  view.clear_all();
  std::size_t slot = 0;
  for (const auto& candidate : candidates) {
    if (slot >= view.capacity()) break;
    if (!seen.emplace(candidate.entry.id, true).second) continue;
    view.set(slot, candidate.entry);
    ages_[slot] = clock_ >= candidate.age ? clock_ - candidate.age : 0;
    ++slot;
  }
  if (slot >= previous_degree) {
    metrics.ids_accepted += slot - previous_degree;
  }
}

void Newscast::on_initiate(Rng& rng, Transport& transport) {
  auto& metrics = mutable_metrics();
  ++metrics.actions_initiated;
  ++clock_;  // all resident entries age by one

  const auto& view = this->view();
  if (view.degree() == 0) {
    ++metrics.self_loop_actions;
    return;
  }
  const NodeId partner = view.entry(view.random_nonempty_slot(rng)).id;
  Message exchange;
  exchange.from = self();
  exchange.to = partner;
  exchange.kind = MessageKind::kNewscastExchange;
  exchange.payload = snapshot_payload();
  transport.send(std::move(exchange));
  ++metrics.messages_sent;
}

void Newscast::on_message(const Message& message, Rng& /*rng*/,
                          Transport& transport) {
  auto& metrics = mutable_metrics();
  ++metrics.messages_received;
  // Trust boundary: ignore kinds this protocol does not speak.
  if (message.kind != MessageKind::kNewscastExchange &&
      message.kind != MessageKind::kNewscastReply) {
    return;
  }
  if (message.kind == MessageKind::kNewscastReply) {
    merge(message.payload);
    return;
  }
  Message reply;
  reply.from = self();
  reply.to = message.from;
  reply.kind = MessageKind::kNewscastReply;
  reply.payload = snapshot_payload();
  merge(message.payload);
  transport.send(std::move(reply));
  ++metrics.messages_sent;
}

}  // namespace gossip
