#include "core/flat_send_forget.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

// Only Digraph's inline accessors are used, so core takes no link
// dependency on the graph library, which itself links core.
#include "graph/digraph.hpp"

namespace gossip {

FlatSendForgetCluster::FlatSendForgetCluster(std::size_t node_count,
                                            SendForgetConfig config,
                                            FlatClusterOptions options)
    : config_(config),
      n_(node_count),
      view_size_(config.view_size),
      live_count_(node_count) {
  config_.validate();
  if (config_.mark_instead_of_clear || config_.replace_when_full) {
    throw std::invalid_argument(
        "mark_instead_of_clear and replace_when_full are SendForget-only");
  }
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
  return initiate_batch(row(u), config_.pairs_per_message, config_.min_degree,
                        u, rng, out);
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

void FlatSendForgetCluster::check_id(NodeId id) const {
  if (id >= n_) {
    throw std::invalid_argument("view id " + std::to_string(id) +
                                " is outside the cluster of " +
                                std::to_string(n_) + " nodes");
  }
}

void FlatSendForgetCluster::install_view(NodeId u,
                                         std::span<const NodeId> ids) {
  assert(u < n_);
  const std::size_t count = std::min(ids.size(), view_size_);
  NodeId largest = 0;
  for (std::size_t i = 0; i < count; ++i) largest = std::max(largest, ids[i]);
  if (count > 0) check_id(largest);
  PackedViewEntry* v = view(u);
  for (std::size_t i = 0; i < view_size_; ++i) v[i] = PackedViewEntry{};
  for (std::size_t i = 0; i < count; ++i) {
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
  assert(u < n_ && slot < view_size_);
  check_id(id);
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
