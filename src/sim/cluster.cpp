#include "sim/cluster.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace gossip::sim {

Cluster::Cluster(std::size_t node_count, const ProtocolFactory& factory) {
  nodes_.reserve(node_count);
  rows_.reserve(node_count);
  live_ids_.reserve(node_count);
  live_pos_.reserve(node_count);
  for (NodeId id = 0; id < node_count; ++id) {
    nodes_.push_back(factory(id));
    assert(nodes_.back()->self() == id);
    track_row(id);
    live_ids_.push_back(id);
    live_pos_.push_back(id);
  }
  live_.assign(node_count, true);
  live_count_ = node_count;
}

PeerProtocol& Cluster::node(NodeId id) {
  assert(id < nodes_.size());
  return *nodes_[id];
}

const PeerProtocol& Cluster::node(NodeId id) const {
  assert(id < nodes_.size());
  return *nodes_[id];
}

bool Cluster::live(NodeId id) const {
  assert(id < live_.size());
  return live_[id];
}

void Cluster::kill(NodeId id) {
  assert(id < live_.size());
  if (!live_[id]) return;
  live_[id] = false;
  // Swap-remove from the dense live-id array.
  const std::size_t p = live_pos_[id];
  const NodeId last = live_ids_.back();
  live_ids_[p] = last;
  live_pos_[last] = p;
  live_ids_.pop_back();
  --live_count_;
}

void Cluster::revive(NodeId id, const ProtocolFactory& factory) {
  assert(id < live_.size());
  if (live_[id]) throw std::logic_error("node already live");
  nodes_[id] = factory(id);
  assert(nodes_[id]->self() == id);
  track_row(id);
  live_[id] = true;
  live_pos_[id] = live_ids_.size();
  live_ids_.push_back(id);
  ++live_count_;
}

NodeId Cluster::spawn(const ProtocolFactory& factory) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(factory(id));
  assert(nodes_.back()->self() == id);
  track_row(id);
  live_.push_back(true);
  live_pos_.push_back(live_ids_.size());
  live_ids_.push_back(id);
  ++live_count_;
  return id;
}

void Cluster::track_row(NodeId id) {
  const LocalView& view = nodes_[id]->view();
  if (id == rows_.size()) {
    rows_.push_back(view.slots());
  } else {
    rows_[id] = view.slots();
  }
  row_bytes_ =
      std::max(row_bytes_, view.capacity() * sizeof(PackedViewEntry));
}

NodeId Cluster::random_live_node(Rng& rng) const {
  assert(live_count_ > 0);
  return live_ids_[rng.uniform(live_ids_.size())];
}

std::vector<NodeId> Cluster::live_nodes() const {
  std::vector<NodeId> out = live_ids_;
  std::sort(out.begin(), out.end());
  return out;
}

void Cluster::install_graph(const Digraph& graph) {
  if (graph.node_count() != nodes_.size()) {
    throw std::invalid_argument("graph size does not match cluster size");
  }
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    nodes_[id]->install_view(graph.out_neighbors(id));
  }
}

Digraph Cluster::snapshot() const {
  std::size_t entries = 0;
  for (const auto& node : nodes_) entries += node->view().degree();
  Digraph g(nodes_.size(), entries);
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const LocalView& view = nodes_[id]->view();
    const PackedViewEntry* slots = view.slots();
    for (std::size_t i = 0; i < view.capacity(); ++i) {
      if (slots[i].empty()) continue;
      const NodeId v = slots[i].id_unchecked();
      if (v < nodes_.size()) g.add_edge(id, v);
    }
  }
  return g;
}

ProtocolMetrics Cluster::aggregate_metrics() const {
  ProtocolMetrics total;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (live_[id]) total += nodes_[id]->metrics();
  }
  return total;
}

}  // namespace gossip::sim
