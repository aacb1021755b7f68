#include "core/baselines/swim.hpp"

#include <algorithm>
#include <cassert>

namespace gossip {

namespace {

constexpr std::uint8_t kUpdateAlive = 0;
constexpr std::uint8_t kUpdateSuspect = 1;
constexpr std::uint8_t kUpdateFaulty = 2;

std::uint8_t status_wire(Swim::Status status) {
  switch (status) {
    case Swim::Status::kAlive: return kUpdateAlive;
    case Swim::Status::kSuspect: return kUpdateSuspect;
    case Swim::Status::kFaulty: return kUpdateFaulty;
  }
  return kUpdateAlive;
}

Swim::Status status_from_wire(std::uint8_t wire) {
  switch (wire) {
    case kUpdateSuspect: return Swim::Status::kSuspect;
    case kUpdateFaulty: return Swim::Status::kFaulty;
    default: return Swim::Status::kAlive;
  }
}

}  // namespace

Swim::Swim(NodeId self, const SwimConfig& config)
    : PeerProtocol(self, config.view_size), config_(config) {}

void Swim::install_view(std::span<const NodeId> ids) {
  PeerProtocol::install_view(ids);
  table_.clear();
  present_.clear();
  ids_.clear();
  member_count_ = 0;
  faulty_count_ = 0;
  pending_.clear();
  relays_.clear();
  outbox_.clear();
  for (const NodeId id : ids) {
    if (id == self() || find_member(id) != nullptr) continue;
    add_member(id, Status::kAlive, 0);
  }
  // Self-announcement: rides the first outgoing piggybacks, so a joiner
  // introduced to a few seeds disseminates itself to the rest.
  enqueue_update(MembershipUpdate{self(), kUpdateAlive, incarnation_});
}

Swim::Member* Swim::find_member(NodeId id) {
  if (id >= present_.size() || present_[id] == 0) return nullptr;
  return &table_[id];
}

const Swim::Member* Swim::find_member(NodeId id) const {
  if (id >= present_.size() || present_[id] == 0) return nullptr;
  return &table_[id];
}

Swim::Member& Swim::add_member(NodeId id, Status status,
                               std::uint32_t incarnation) {
  if (id >= present_.size()) {
    present_.resize(id + 1, 0);
    table_.resize(id + 1);
  }
  present_[id] = 1;
  ids_.push_back(id);
  ++member_count_;
  Member& m = table_[id];
  m.status = status;
  m.incarnation = incarnation;
  m.suspect_since = round_;
  if (status == Status::kFaulty) ++faulty_count_;
  ++mutable_metrics().ids_accepted;
  return m;
}

void Swim::set_status(Member& m, NodeId id, Status status,
                      std::uint64_t round) {
  (void)id;
  if (m.status == status) return;
  if (m.status == Status::kFaulty) --faulty_count_;
  if (status == Status::kFaulty) {
    ++faulty_count_;
    ++mutable_metrics().deletions;  // the detector's washout analog
  }
  if (status == Status::kSuspect) m.suspect_since = round;
  m.status = status;
}

bool Swim::overrides(Status status, std::uint32_t incarnation,
                     const MembershipUpdate& update) {
  if (update.incarnation != incarnation) {
    return update.incarnation > incarnation;
  }
  return update.status > status_wire(status);
}

std::size_t Swim::transmit_budget() const {
  std::size_t bits = 1;
  for (std::size_t m = member_count_; m > 1; m >>= 1) ++bits;
  return config_.transmit_factor * bits;
}

void Swim::enqueue_update(MembershipUpdate update) {
  for (OutUpdate& out : outbox_) {
    if (out.update.subject != update.subject) continue;
    if (out.update == update) return;  // already spreading this assertion
    if (overrides(status_from_wire(out.update.status),
                  out.update.incarnation, update)) {
      out.update = update;
      out.transmits = 0;
    }
    return;
  }
  outbox_.push_back(OutUpdate{update, 0});
}

void Swim::fill_piggyback(Message& message, Rng& rng) {
  (void)rng;
  // Prune exhausted assertions, then take the least-transmitted ones
  // (ties in insertion order). The outbox stays small — budget-pruned —
  // so the partial selection scan is cheap.
  const std::uint32_t budget =
      static_cast<std::uint32_t>(transmit_budget());
  std::erase_if(outbox_,
                [budget](const OutUpdate& o) { return o.transmits >= budget; });
  // Targeted notifications already on the message ride outside the budget.
  const std::size_t target_size =
      message.updates.size() + config_.piggyback_limit;
  std::vector<std::uint8_t> taken(outbox_.size(), 0);
  while (message.updates.size() < target_size) {
    std::size_t best = outbox_.size();
    for (std::size_t i = 0; i < outbox_.size(); ++i) {
      if (taken[i] != 0) continue;
      if (best == outbox_.size() ||
          outbox_[i].transmits < outbox_[best].transmits) {
        best = i;
      }
    }
    if (best == outbox_.size()) break;
    taken[best] = 1;
    const bool duplicate =
        std::any_of(message.updates.begin(), message.updates.end(),
                    [&](const MembershipUpdate& u) {
                      return u.subject == outbox_[best].update.subject;
                    });
    if (duplicate) continue;
    ++outbox_[best].transmits;
    message.updates.push_back(outbox_[best].update);
  }
}

NodeId Swim::random_member(Rng& rng, bool faulty, NodeId exclude) {
  const std::size_t wanted = faulty ? faulty_count_ : member_count_ -
                                                          faulty_count_;
  if (ids_.empty() || wanted == 0) return kNilNode;
  const auto qualifies = [&](NodeId id) {
    const Member* m = find_member(id);
    return m != nullptr && id != self() && id != exclude &&
           (m->status == Status::kFaulty) == faulty;
  };
  for (int tries = 0; tries < 8; ++tries) {
    const NodeId id = ids_[rng.uniform(ids_.size())];
    if (qualifies(id)) return id;
  }
  // Deterministic fallback: scan from a random start.
  const std::size_t start = rng.uniform(ids_.size());
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    const NodeId id = ids_[(start + i) % ids_.size()];
    if (qualifies(id)) return id;
  }
  return kNilNode;
}

void Swim::send_ping(NodeId target, std::uint64_t round, Rng& rng,
                     Transport& transport) {
  Message ping;
  ping.from = self();
  ping.to = target;
  ping.kind = MessageKind::kSwimPing;
  ping.subject = target;
  ping.stamp = ++seq_;
  (void)round;
  // Targeted notification: a suspected or confirmed target learns of the
  // assertion against it from the probe itself and can refute with a
  // higher incarnation (rides free, outside the piggyback budget).
  if (const Member* m = find_member(target);
      m != nullptr && m->status != Status::kAlive) {
    ping.updates.push_back(MembershipUpdate{
        target, status_wire(m->status), m->incarnation});
  }
  fill_piggyback(ping, rng);
  transport.send(std::move(ping));
  ++mutable_metrics().messages_sent;
}

void Swim::start_probe(NodeId target, std::uint64_t round, Rng& rng,
                       Transport& transport) {
  pending_.push_back(
      PendingProbe{target, round + config_.ack_timeout, false});
  send_ping(target, round, rng, transport);
}

void Swim::expire_timers(std::uint64_t round, Rng& rng,
                         Transport& transport) {
  std::erase_if(relays_, [round](const PendingRelay& r) {
    return r.deadline <= round;
  });

  std::size_t kept = 0;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    PendingProbe p = pending_[i];
    if (p.deadline > round) {
      pending_[kept++] = p;
      continue;
    }
    if (!p.indirect) {
      // Escalate through k random helpers.
      std::size_t sent = 0;
      for (std::size_t k = 0; k < config_.indirect_probes; ++k) {
        const NodeId helper = random_member(rng, /*faulty=*/false, p.target);
        if (helper == kNilNode) break;
        Message req;
        req.from = self();
        req.to = helper;
        req.kind = MessageKind::kSwimPingReq;
        req.subject = p.target;
        req.stamp = ++seq_;
        fill_piggyback(req, rng);
        transport.send(std::move(req));
        ++mutable_metrics().messages_sent;
        ++sent;
      }
      if (sent > 0) {
        p.indirect = true;
        p.deadline = round + config_.indirect_timeout;
        pending_[kept++] = p;
        continue;
      }
    }
    // Indirect stage expired (or no helpers exist): suspect the target.
    if (Member* m = find_member(p.target);
        m != nullptr && m->status == Status::kAlive) {
      set_status(*m, p.target, Status::kSuspect, round);
      enqueue_update(
          MembershipUpdate{p.target, kUpdateSuspect, m->incarnation});
    }
  }
  pending_.resize(kept);

  // Suspicion timeouts -> confirmed failures.
  for (const NodeId id : ids_) {
    Member* m = find_member(id);
    if (m == nullptr || m->status != Status::kSuspect) continue;
    if (round >= m->suspect_since + config_.suspicion_timeout) {
      set_status(*m, id, Status::kFaulty, round);
      enqueue_update(MembershipUpdate{id, kUpdateFaulty, m->incarnation});
    }
  }
}

void Swim::on_round(std::uint64_t round, Rng& rng, Transport& transport) {
  round_ = round;
  ++mutable_metrics().actions_initiated;
  expire_timers(round, rng, transport);

  const NodeId target = random_member(rng, /*faulty=*/false, kNilNode);
  if (target == kNilNode) {
    ++mutable_metrics().self_loop_actions;
  } else {
    start_probe(target, round, rng, transport);
  }

  // Reclaim path: keep a trickle of probes flowing to confirmed-faulty
  // members so a wrongly-confirmed (but live) one can refute.
  if (config_.faulty_probe_interval > 0 && faulty_count_ > 0 &&
      round % config_.faulty_probe_interval == 0) {
    const NodeId dead = random_member(rng, /*faulty=*/true, kNilNode);
    if (dead != kNilNode) send_ping(dead, round, rng, transport);
  }
}

void Swim::on_initiate(Rng& rng, Transport& transport) {
  // Round-less drivers tick an internal clock: one initiate == one round.
  on_round(round_ + 1, rng, transport);
}

void Swim::apply_updates(const Message& message, std::uint64_t round) {
  // The sender itself is implicit alive evidence at least at incarnation 0.
  if (message.from != self() && find_member(message.from) == nullptr) {
    add_member(message.from, Status::kAlive, 0);
    enqueue_update(MembershipUpdate{message.from, kUpdateAlive, 0});
  }
  for (const MembershipUpdate& u : message.updates) {
    if (u.subject == self()) {
      // Refutation: any non-alive assertion about this node at a current
      // (or newer) incarnation bumps our incarnation and announces it.
      if (u.status != kUpdateAlive && u.incarnation >= incarnation_) {
        incarnation_ = u.incarnation + 1;
        enqueue_update(
            MembershipUpdate{self(), kUpdateAlive, incarnation_});
      }
      continue;
    }
    Member* m = find_member(u.subject);
    if (m == nullptr) {
      Member& added =
          add_member(u.subject, status_from_wire(u.status), u.incarnation);
      if (added.status == Status::kSuspect) added.suspect_since = round;
      enqueue_update(u);
      continue;
    }
    if (!overrides(m->status, m->incarnation, u)) continue;
    m->incarnation = u.incarnation;
    set_status(*m, u.subject, status_from_wire(u.status), round);
    enqueue_update(u);  // re-gossip what changed our mind
  }
}

void Swim::on_message(const Message& message, Rng& rng,
                      Transport& transport) {
  ++mutable_metrics().messages_received;
  switch (message.kind) {
    case MessageKind::kSwimPing: {
      apply_updates(message, round_);
      Message ack;
      ack.from = self();
      ack.to = message.from;
      ack.kind = MessageKind::kSwimAck;
      ack.subject = self();
      ack.stamp = message.stamp;
      fill_piggyback(ack, rng);
      transport.send(std::move(ack));
      ++mutable_metrics().messages_sent;
      break;
    }
    case MessageKind::kSwimPingReq: {
      apply_updates(message, round_);
      relays_.push_back(PendingRelay{message.subject, message.from,
                                     round_ + config_.indirect_timeout});
      send_ping(message.subject, round_, rng, transport);
      break;
    }
    case MessageKind::kSwimAck: {
      apply_updates(message, round_);
      const NodeId attested = message.subject;
      std::erase_if(pending_, [attested](const PendingProbe& p) {
        return p.target == attested;
      });
      // Relay the attestation back to indirect-probe origins.
      std::size_t kept = 0;
      for (std::size_t i = 0; i < relays_.size(); ++i) {
        const PendingRelay r = relays_[i];
        if (r.target != attested) {
          relays_[kept++] = r;
          continue;
        }
        Message relay;
        relay.from = self();
        relay.to = r.origin;
        relay.kind = MessageKind::kSwimAck;
        relay.subject = attested;
        relay.stamp = message.stamp;
        fill_piggyback(relay, rng);
        transport.send(std::move(relay));
        ++mutable_metrics().messages_sent;
      }
      relays_.resize(kept);
      // First-hand evidence: an ack from a locally-suspected member
      // downgrades the suspicion (same incarnation, local only — a
      // gossiped refutation needs the member's own incarnation bump).
      if (Member* m = find_member(attested);
          m != nullptr && m->status == Status::kSuspect) {
        set_status(*m, attested, Status::kAlive, round_);
      }
      break;
    }
    default:
      // Trust boundary: ignore kinds this protocol does not speak.
      break;
  }
}

MemberVerdict Swim::member_verdict(NodeId id) const {
  if (id == self()) return MemberVerdict::kAlive;
  const Member* m = find_member(id);
  if (m == nullptr) return MemberVerdict::kUnknown;
  switch (m->status) {
    case Status::kAlive: return MemberVerdict::kAlive;
    case Status::kSuspect: return MemberVerdict::kSuspect;
    case Status::kFaulty: return MemberVerdict::kFaulty;
  }
  return MemberVerdict::kUnknown;
}

std::uint64_t Swim::state_digest() const {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(incarnation_);
  mix(seq_);
  mix(pending_.size());
  mix(relays_.size());
  mix(outbox_.size());
  for (NodeId id = 0; id < present_.size(); ++id) {
    if (present_[id] == 0) continue;
    const Member& m = table_[id];
    mix(id);
    mix(static_cast<std::uint64_t>(m.status));
    mix(m.incarnation);
    if (m.status == Status::kSuspect) mix(m.suspect_since);
  }
  return h;
}

const Swim::Member* Swim::member(NodeId id) const { return find_member(id); }

}  // namespace gossip
