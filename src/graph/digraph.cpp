#include "graph/digraph.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <utility>

namespace gossip {

Digraph::Digraph(std::size_t node_count)
    : out_(node_count), in_degree_(node_count, 0) {}

Digraph Digraph::from_in_regular_rows(std::vector<std::vector<NodeId>> rows,
                                      std::size_t in_degree) {
  Digraph g;
  g.in_degree_.assign(rows.size(), in_degree);
  g.edge_count_ = rows.size() * in_degree;
  g.out_ = std::move(rows);
  return g;
}

void Digraph::add_edge(NodeId from, NodeId to) {
  assert(from < out_.size());
  assert(to < out_.size());
  out_[from].push_back(to);
  ++in_degree_[to];
  ++edge_count_;
}

bool Digraph::remove_edge(NodeId from, NodeId to) {
  assert(from < out_.size());
  auto& adj = out_[from];
  const auto it = std::find(adj.begin(), adj.end(), to);
  if (it == adj.end()) return false;
  // Order within the adjacency list is not meaningful; swap-erase is O(1).
  *it = adj.back();
  adj.pop_back();
  --in_degree_[to];
  --edge_count_;
  return true;
}

std::size_t Digraph::edge_multiplicity(NodeId from, NodeId to) const {
  assert(from < out_.size());
  const auto& adj = out_[from];
  return static_cast<std::size_t>(std::count(adj.begin(), adj.end(), to));
}

std::size_t Digraph::out_degree(NodeId node) const {
  assert(node < out_.size());
  return out_[node].size();
}

std::size_t Digraph::in_degree(NodeId node) const {
  assert(node < in_degree_.size());
  return in_degree_[node];
}

std::size_t Digraph::self_edge_count() const {
  std::size_t count = 0;
  for (NodeId u = 0; u < out_.size(); ++u) {
    count += edge_multiplicity(u, u);
  }
  return count;
}

std::size_t Digraph::parallel_edge_count() const {
  std::size_t redundant = 0;
  std::map<NodeId, std::size_t> mult;
  for (NodeId u = 0; u < out_.size(); ++u) {
    mult.clear();
    for (const NodeId v : out_[u]) ++mult[v];
    for (const auto& [v, m] : mult) {
      redundant += m - 1;
    }
  }
  return redundant;
}

bool Digraph::operator==(const Digraph& other) const {
  if (out_.size() != other.out_.size()) return false;
  if (edge_count_ != other.edge_count_) return false;
  for (NodeId u = 0; u < out_.size(); ++u) {
    auto a = out_[u];
    auto b = other.out_[u];
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    if (a != b) return false;
  }
  return true;
}

}  // namespace gossip
