#include "core/flat_send_forget.hpp"

#include <algorithm>
#include <stdexcept>

// Only Digraph's inline accessors are used, so core takes no link
// dependency on the graph library, which itself links core.
#include "graph/digraph.hpp"

namespace gossip {

FlatSendForgetCluster::FlatSendForgetCluster(std::size_t node_count,
                                            SendForgetConfig config,
                                            FlatClusterOptions options)
    : config_(config),
      options_(options),
      n_(node_count),
      view_size_(config.view_size),
      pairs_(options.pairs_per_message),
      live_count_(node_count) {
  config_.validate();
  if (node_count == 0) {
    throw std::invalid_argument("flat cluster requires at least one node");
  }
  if (node_count > static_cast<std::size_t>(PackedViewEntry::kMaxId) + 1) {
    // The dependence tag lives in bit 31 of the packed id.
    throw std::invalid_argument(
        "flat cluster holds at most 2^31 - 1 nodes (packed id width)");
  }
  if (view_size_ > 0xFFFF) {
    throw std::invalid_argument(
        "view_size must fit the 16-bit packed degree array");
  }
  if (pairs_ < 1 || pairs_ > kMaxPairsPerMessage) {
    throw std::invalid_argument("pairs_per_message must be in [1, 4]");
  }
  if (2 * pairs_ > view_size_) {
    throw std::invalid_argument(
        "a batched message may not carry more ids than the view holds");
  }
  // First-touch: stripe every slab along the same contiguous node partition
  // the sharded driver uses (ceil(n / stripes) nodes per stripe).
  const std::size_t stripes = std::max<std::size_t>(1, options.init_threads);
  const std::size_t nodes_per_stripe =
      stripes <= 1 ? 0 : (node_count + stripes - 1) / stripes;
  slots_ = FirstTouchSlab<PackedViewEntry>(node_count * view_size_,
                                           PackedViewEntry{},
                                           nodes_per_stripe * view_size_);
  degree_ =
      FirstTouchSlab<std::uint16_t>(node_count, 0, nodes_per_stripe);
  live_ = FirstTouchSlab<std::uint8_t>(node_count, 1, nodes_per_stripe);
}

FlatInitiateResult FlatSendForgetCluster::initiate_batched(NodeId u,
                                                           Rng& rng,
                                                           FlatPush& out) {
  PackedViewEntry* v = view(u);
  const std::size_t want = 2 * pairs_;
  // 2p distinct slots, uniform, by rejection against a fixed-size scratch
  // (no allocation; want <= 8 keeps the duplicate scan trivial).
  std::size_t slots[2 * kMaxPairsPerMessage];
  std::size_t got = 0;
  while (got < want) {
    const std::size_t i = rng.uniform(view_size_);
    bool seen = false;
    for (std::size_t t = 0; t < got; ++t) {
      if (slots[t] == i) {
        seen = true;
        break;
      }
    }
    if (!seen) slots[got++] = i;
  }
  PackedViewEntry picked[2 * kMaxPairsPerMessage];
  for (std::size_t t = 0; t < want; ++t) {
    picked[t] = v[slots[t]];
    if (picked[t].empty()) {
      // Any empty selection aborts the action, exactly as in
      // SendForgetExt::initiate (the p-fold "nothing happens" case).
      return FlatInitiateResult::kSelfLoop;
    }
  }
  // SendForgetExt's duplication test: keep the slots while the view is
  // within `want` of the floor. (Equivalent to the p = 1 expression
  // `degree <= min_degree` at even degrees.)
  const bool duplicate = degree_[u] < config_.min_degree + want;
  if (!duplicate) {
    for (std::size_t t = 0; t < want; ++t) v[slots[t]] = PackedViewEntry{};
    degree_[u] = static_cast<std::uint16_t>(degree_[u] - want);
  }
  // picked[0] names the destination (as v[i] does in Fig 5.1); the message
  // payload is the sender's id plus the other 2p - 1 lifted ids, every
  // entry tagged with the duplication flag.
  out.to = picked[0].id_unchecked();
  out.count = static_cast<std::uint32_t>(want);
  out.ids[0] = PackedViewEntry::pack(u, duplicate);
  for (std::size_t t = 1; t < want; ++t) {
    out.ids[t] = picked[t].with_dependent(duplicate);
  }
  return duplicate ? FlatInitiateResult::kSentDuplicated
                   : FlatInitiateResult::kSent;
}

void FlatSendForgetCluster::set_min_degree(std::size_t min_degree) {
  SendForgetConfig candidate = config_;
  candidate.min_degree = min_degree;
  candidate.validate();
  config_.min_degree = min_degree;
}

void FlatSendForgetCluster::kill(NodeId u) {
  assert(u < n_);
  if (!live_[u]) return;
  live_[u] = 0;
  --live_count_;
}

void FlatSendForgetCluster::revive(NodeId u, Rng& rng) {
  assert(u < n_);
  if (live_[u]) throw std::logic_error("node already live");
  if (live_count_ == 0) {
    throw std::logic_error("cannot bootstrap a joiner into an empty cluster");
  }

  // Collect min_degree distinct ids of live nodes: the contact plus live
  // entries of its view, topping up from further random live nodes' views.
  // A bounded number of attempts keeps this deterministic-time; if the
  // cluster is too depleted to offer enough distinct ids we top up with
  // repeats of live ids (the view is a multiset, so this is legal and keeps
  // the joiner at outdegree dL as §6.5 requires).
  const std::size_t want = config_.min_degree;
  std::vector<NodeId> boot;
  boot.reserve(want);
  const auto add_distinct = [&](NodeId id) {
    if (id == u || !live_[id]) return;
    if (std::find(boot.begin(), boot.end(), id) != boot.end()) return;
    boot.push_back(id);
  };
  NodeId contact = random_live_node(rng);
  for (int attempts = 0; boot.size() < want && attempts < 64; ++attempts) {
    add_distinct(contact);
    const PackedViewEntry* cv = view(contact);
    for (std::size_t i = 0; i < view_size_ && boot.size() < want; ++i) {
      if (!cv[i].empty()) add_distinct(cv[i].id_unchecked());
    }
    contact = random_live_node(rng);
  }
  while (boot.size() < want) {
    const NodeId id = random_live_node(rng);
    if (id != u) boot.push_back(id);
  }

  PackedViewEntry* v = view(u);
  for (std::size_t i = 0; i < view_size_; ++i) v[i] = PackedViewEntry{};
  for (std::size_t i = 0; i < boot.size(); ++i) {
    v[i] = PackedViewEntry::pack(boot[i], /*dependent=*/false);
  }
  degree_[u] = static_cast<std::uint16_t>(boot.size());
  live_[u] = 1;
  ++live_count_;
}

void FlatSendForgetCluster::install_view(NodeId u,
                                         const std::vector<NodeId>& ids) {
  assert(u < n_);
  PackedViewEntry* v = view(u);
  for (std::size_t i = 0; i < view_size_; ++i) v[i] = PackedViewEntry{};
  const std::size_t count = std::min(ids.size(), view_size_);
  for (std::size_t i = 0; i < count; ++i) {
    assert(ids[i] != kNilNode);
    v[i] = PackedViewEntry::pack(ids[i], /*dependent=*/false);
  }
  degree_[u] = static_cast<std::uint16_t>(count);
}

void FlatSendForgetCluster::install_graph(const Digraph& graph) {
  if (graph.node_count() != n_) {
    throw std::invalid_argument("graph size does not match cluster size");
  }
  for (NodeId u = 0; u < n_; ++u) install_view(u, graph.out_neighbors(u));
}

void FlatSendForgetCluster::install_slot(NodeId u, std::size_t slot,
                                         NodeId id) {
  assert(u < n_ && slot < view_size_ && id != kNilNode);
  PackedViewEntry* v = view(u);
  assert(v[slot].empty());
  v[slot] = PackedViewEntry::pack(id, /*dependent=*/false);
  degree_[u] = static_cast<std::uint16_t>(degree_[u] + 1);
}

std::vector<NodeId> FlatSendForgetCluster::view_ids(NodeId u) const {
  const PackedViewEntry* v = view(u);
  std::vector<NodeId> out;
  out.reserve(degree_[u]);
  for (std::size_t i = 0; i < view_size_; ++i) {
    if (!v[i].empty()) out.push_back(v[i].id_unchecked());
  }
  return out;
}

std::vector<ViewEntry> FlatSendForgetCluster::view_entries(NodeId u) const {
  const PackedViewEntry* v = view(u);
  std::vector<ViewEntry> out;
  out.reserve(degree_[u]);
  for (std::size_t i = 0; i < view_size_; ++i) {
    if (!v[i].empty()) out.push_back(v[i].unpack());
  }
  return out;
}

NodeId FlatSendForgetCluster::random_live_node(Rng& rng) const {
  assert(live_count_ > 0);
  // Churn call sites only; rejection sampling suffices off the hot path.
  for (;;) {
    const auto id = static_cast<NodeId>(rng.uniform(n_));
    if (live_[id]) return id;
  }
}

std::uint64_t FlatSendForgetCluster::fingerprint() const {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t value) {
    h ^= value;
    h *= 0x100000001B3ULL;
  };
  // Mixed over unpacked values (empty slot = kNilNode, independent), so the
  // hash of any reachable state is identical to the unpacked engine's.
  const std::size_t total = n_ * view_size_;
  for (std::size_t i = 0; i < total; ++i) {
    const ViewEntry e = slots_[i].unpack();
    mix(e.id);
    mix(e.dependent ? 2 : 1);
  }
  for (NodeId u = 0; u < n_; ++u) {
    mix(degree_[u]);
    mix(live_[u]);
  }
  return h;
}

}  // namespace gossip
