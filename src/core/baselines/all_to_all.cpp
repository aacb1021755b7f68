#include "core/baselines/all_to_all.hpp"

#include <algorithm>

namespace gossip {

AllToAll::AllToAll(NodeId self, const AllToAllConfig& config)
    : PeerProtocol(self, config.view_size), config_(config) {}

void AllToAll::install_view(std::span<const NodeId> ids) {
  PeerProtocol::install_view(ids);
  table_.clear();
  present_.clear();
  ids_.clear();
  for (const NodeId id : ids) {
    if (id == self() || find_member(id) != nullptr) continue;
    add_member(id);
  }
}

AllToAll::Member* AllToAll::find_member(NodeId id) {
  if (id >= present_.size() || present_[id] == 0) return nullptr;
  return &table_[id];
}

AllToAll::Member& AllToAll::add_member(NodeId id) {
  if (id >= present_.size()) {
    present_.resize(id + 1, 0);
    table_.resize(id + 1);
  }
  present_[id] = 1;
  ids_.push_back(id);
  Member& m = table_[id];
  m.counter = 0;
  m.last_advance = round_;  // grace: the timer arms from first sight
  m.status = Status::kAlive;
  ++mutable_metrics().ids_accepted;
  return m;
}

void AllToAll::on_round(std::uint64_t round, Rng& rng, Transport& transport) {
  (void)rng;  // fully deterministic: no draws
  round_ = round;
  ++mutable_metrics().actions_initiated;

  // Timeout sweep first, so a heartbeat sent this round cannot mask a
  // member that was already overdue.
  for (const NodeId id : ids_) {
    Member& m = table_[id];
    if (m.status == Status::kAlive &&
        round - m.last_advance >= config_.fail_timeout) {
      m.status = Status::kFaulty;
      ++mutable_metrics().deletions;
    }
    if (m.status == Status::kFaulty &&
        round - m.last_advance >=
            config_.fail_timeout + config_.remove_timeout) {
      m.status = Status::kRemoved;
    }
  }

  if (round % config_.heartbeat_period != 0) return;
  ++counter_;
  // Fan out in table order (ascending id for the initial membership):
  // deterministic with zero RNG.
  for (const NodeId id : ids_) {
    const Member& m = table_[id];
    if (m.status == Status::kRemoved) continue;
    Message beat;
    beat.from = self();
    beat.to = id;
    beat.kind = MessageKind::kHeartbeat;
    beat.subject = self();
    beat.stamp = counter_;
    transport.send(std::move(beat));
    ++mutable_metrics().messages_sent;
  }
}

void AllToAll::on_initiate(Rng& rng, Transport& transport) {
  on_round(round_ + 1, rng, transport);
}

void AllToAll::on_message(const Message& message, Rng& rng,
                          Transport& transport) {
  (void)rng;
  (void)transport;
  ++mutable_metrics().messages_received;
  if (message.kind != MessageKind::kHeartbeat) return;
  Member* m = find_member(message.from);
  if (m == nullptr) m = &add_member(message.from);  // join path
  if (message.stamp > m->counter) {
    m->counter = message.stamp;
    m->last_advance = round_;
    m->status = Status::kAlive;  // resurrection on resumed heartbeats
  }
}

MemberVerdict AllToAll::member_verdict(NodeId id) const {
  if (id == self()) return MemberVerdict::kAlive;
  if (id >= present_.size() || present_[id] == 0) {
    return MemberVerdict::kUnknown;
  }
  return table_[id].status == Status::kAlive ? MemberVerdict::kAlive
                                             : MemberVerdict::kFaulty;
}

std::uint64_t AllToAll::state_digest() const {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(counter_);
  for (NodeId id = 0; id < present_.size(); ++id) {
    if (present_[id] == 0) continue;
    const Member& m = table_[id];
    mix(id);
    mix(m.counter);
    mix(m.last_advance);
    mix(static_cast<std::uint64_t>(m.status));
  }
  return h;
}

const AllToAll::Member* AllToAll::member(NodeId id) const {
  if (id >= present_.size() || present_[id] == 0) return nullptr;
  return &table_[id];
}

}  // namespace gossip
