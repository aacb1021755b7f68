#include "graph/connectivity.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>

namespace gossip {

namespace {

// Builds an undirected adjacency list (each directed edge contributes both
// directions; multiplicities collapse naturally for traversal purposes).
std::vector<std::vector<NodeId>> undirected_adjacency(const Digraph& g) {
  std::vector<std::vector<NodeId>> adj(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (const NodeId v : g.out_neighbors(u)) {
      adj[u].push_back(v);
      adj[v].push_back(u);
    }
  }
  return adj;
}

// BFS over an undirected adjacency list from `start`, restricted to vertices
// where live[v] is true. Returns (visited flags, max depth reached).
std::pair<std::vector<bool>, std::size_t> bfs(
    const std::vector<std::vector<NodeId>>& adj, NodeId start,
    const std::vector<bool>& live) {
  std::vector<bool> seen(adj.size(), false);
  std::queue<std::pair<NodeId, std::size_t>> frontier;
  seen[start] = true;
  frontier.emplace(start, 0);
  std::size_t max_depth = 0;
  while (!frontier.empty()) {
    const auto [u, depth] = frontier.front();
    frontier.pop();
    max_depth = std::max(max_depth, depth);
    for (const NodeId v : adj[u]) {
      if (!seen[v] && live[v]) {
        seen[v] = true;
        frontier.emplace(v, depth + 1);
      }
    }
  }
  return {std::move(seen), max_depth};
}

}  // namespace

bool is_weakly_connected(const Digraph& g) {
  const std::vector<bool> live(g.node_count(), true);
  return is_weakly_connected_among(g, live);
}

bool is_weakly_connected_among(const Digraph& g,
                               const std::vector<bool>& live) {
  assert(live.size() == g.node_count());
  std::size_t live_count = 0;
  NodeId start = kNilNode;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (live[u]) {
      ++live_count;
      if (start == kNilNode) start = u;
    }
  }
  if (live_count <= 1) return true;

  // Restrict traversal to live endpoints.
  std::vector<std::vector<NodeId>> adj(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (!live[u]) continue;
    for (const NodeId v : g.out_neighbors(u)) {
      if (!live[v]) continue;
      adj[u].push_back(v);
      adj[v].push_back(u);
    }
  }
  const auto [seen, depth] = bfs(adj, start, live);
  (void)depth;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (live[u] && !seen[u]) return false;
  }
  return true;
}

std::size_t estimate_undirected_diameter(const Digraph& g,
                                         std::size_t sample_count) {
  const std::size_t n = g.node_count();
  if (n < 2) return 0;
  const auto adj = undirected_adjacency(g);
  const std::vector<bool> live(n, true);
  std::size_t worst = 0;
  const std::size_t step = std::max<std::size_t>(1, n / std::max<std::size_t>(1, sample_count));
  for (NodeId start = 0; start < n; start += static_cast<NodeId>(step)) {
    const auto [seen, depth] = bfs(adj, start, live);
    for (NodeId v = 0; v < n; ++v) {
      if (!seen[v]) return std::numeric_limits<std::size_t>::max();
    }
    worst = std::max(worst, depth);
  }
  return worst;
}

}  // namespace gossip
