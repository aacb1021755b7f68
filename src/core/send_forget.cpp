#include "core/send_forget.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/send_forget_row.hpp"

namespace gossip {

void SendForgetConfig::validate() const {
  if (view_size < 6) {
    throw std::invalid_argument("S&F requires view size s >= 6");
  }
  if (view_size % 2 != 0) {
    throw std::invalid_argument("S&F requires even view size s");
  }
  if (min_degree % 2 != 0) {
    throw std::invalid_argument("S&F requires even min degree dL");
  }
  if (min_degree + 6 > view_size) {
    throw std::invalid_argument("S&F requires dL <= s - 6");
  }
  if (pairs_per_message < 1 || pairs_per_message > kMaxPairsPerMessage) {
    throw std::invalid_argument("pairs_per_message must be in [1, 4]");
  }
  if (2 * pairs_per_message > view_size) {
    throw std::invalid_argument(
        "a batched message may not carry more ids than the view holds");
  }
}

SendForgetConfig default_send_forget_config() {
  return SendForgetConfig{.view_size = 40, .min_degree = 18};
}

SendForget::SendForget(NodeId self, const SendForgetConfig& config)
    : PeerProtocol(self, config.view_size), config_(config) {
  config_.validate();
  if (!PackedViewEntry::packable(self)) {
    throw std::invalid_argument("S&F node id does not fit a packed slot");
  }
}

// Mark & undelete on the row rules: tombstone what is sent, revive
// tombstones before duplicating.
struct SendForget::Marks {
  SendForget& node;

  void refill() {
    if (node.config_.mark_instead_of_clear) {
      node.undelete(2 * node.config_.pairs_per_message);
    }
  }
  void sent(std::size_t slot, PackedViewEntry entry) {
    if (node.config_.mark_instead_of_clear) {
      node.tombstones_.push_back(Tombstone{slot, entry.id_unchecked()});
    }
  }
};

void SendForget::undelete(std::size_t count) {
  std::size_t revive = std::min(count, tombstones_.size());
  revive -= revive % 2;  // pairs keep the degree even
  for (std::size_t k = 0; k < revive; ++k) {
    // The revived instance duplicates the copy that was sent out; label it
    // dependent, like a duplication would be.
    mutable_view().set(tombstones_[k].slot, ViewEntry{tombstones_[k].id, true});
  }
  tombstones_.erase(tombstones_.begin(),
                    tombstones_.begin() + static_cast<std::ptrdiff_t>(revive));
  undeletions_ += revive;
}

void SendForget::on_initiate(Rng& rng, Transport& transport) {
  auto& metrics = mutable_metrics();
  ++metrics.actions_initiated;

  const ViewRow row = mutable_view().row();
  FlatPush push;
  const FlatInitiateResult result =
      config_.pairs_per_message == 1
          ? initiate_pair(row, config_.min_degree, self(), rng, push,
                          Marks{*this})
          : initiate_batch(row, config_.pairs_per_message,
                           config_.min_degree, self(), rng, push,
                           Marks{*this});
  if (result == FlatInitiateResult::kSelfLoop) {
    ++metrics.self_loop_actions;
    return;
  }
  if (result == FlatInitiateResult::kSentDuplicated) ++metrics.duplications;

  Message message;
  message.from = self();
  message.to = push.to;
  message.kind = MessageKind::kPush;
  message.payload.reserve(push.count);
  for (std::uint32_t k = 0; k < push.count; ++k) {
    message.payload.push_back(push.ids[k].unpack());
  }
  transport.send(std::move(message));
  ++metrics.messages_sent;
}

void SendForget::on_message(const Message& message, Rng& rng,
                            Transport& /*transport*/) {
  auto& metrics = mutable_metrics();
  ++metrics.messages_received;
  // Trust boundary: a malformed message is ignored outright — a wrong kind;
  // an empty or odd-sized payload, which would break the even-degree
  // invariant; more than 2 * kMaxPairsPerMessage ids; or an id the packed
  // row cannot hold (an empty entry included).
  const std::vector<ViewEntry>& payload = message.payload;
  if (message.kind != MessageKind::kPush || payload.empty() ||
      payload.size() % 2 != 0 || payload.size() > 2 * kMaxPairsPerMessage) {
    return;
  }
  FlatPush push;
  push.count = static_cast<std::uint32_t>(payload.size());
  for (std::size_t k = 0; k < payload.size(); ++k) {
    if (!PackedViewEntry::packable(payload[k].id)) return;
    push.ids[k] = PackedViewEntry::pack(payload[k].id, payload[k].dependent);
  }

  auto& view = mutable_view();
  const std::size_t accepted = receive_push(view.row(), self(), push, rng);
  metrics.ids_accepted += accepted;
  // A tombstone is gone for good once a receive reuses its slot.
  std::erase_if(tombstones_, [&view](const Tombstone& t) {
    return !view.slot_empty(t.slot);
  });
  if (accepted == push.count) return;
  if (!config_.replace_when_full) {
    ++metrics.deletions;  // d(u) = s: the rest is deleted
    return;
  }
  // Replace when full: each id that did not fit evicts a random entry.
  for (std::size_t k = accepted; k < push.count; ++k) {
    ViewEntry entry = push.ids[k].unpack();
    if (entry.id == self()) entry.dependent = true;  // self-edge (§2)
    view.set(view.random_nonempty_slot(rng), entry);
    ++metrics.ids_accepted;
  }
}

}  // namespace gossip
