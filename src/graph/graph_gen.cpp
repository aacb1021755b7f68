#include "graph/graph_gen.hpp"

#include <algorithm>
#include <cassert>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace gossip {

Digraph random_out_regular(std::size_t n, std::size_t out_degree, Rng& rng) {
  if (out_degree >= n) throw std::invalid_argument("out_degree must be < n");
  Digraph g(n);
  for (NodeId u = 0; u < n; ++u) {
    // Sample from [0, n-1) and skip over u to exclude self-edges.
    for (const std::size_t raw : rng.sample_without_replacement(n - 1, out_degree)) {
      auto v = static_cast<NodeId>(raw);
      if (v >= u) ++v;
      g.add_edge(u, v);
    }
  }
  return g;
}

Digraph ring_with_chords(std::size_t n, std::size_t chords_per_node,
                         Rng& rng) {
  assert(n >= 2);
  Digraph g(n);
  for (NodeId u = 0; u < n; ++u) {
    g.add_edge(u, static_cast<NodeId>((u + 1) % n));
    for (std::size_t c = 0; c < chords_per_node; ++c) {
      auto v = static_cast<NodeId>(rng.uniform(n - 1));
      if (v >= u) ++v;
      g.add_edge(u, v);
    }
  }
  return g;
}

Digraph permutation_regular(std::size_t n, std::size_t k, Rng& rng) {
  if (n < 2) throw std::invalid_argument("need at least 2 nodes");
  // Rows are reserved once at k slots and filled node by node from a few
  // permutations at a time. Round r still draws the r-th permutation and
  // lands in slot r of every row, so the graph and the draws equal those of
  // adding one edge per node per round. A batch of 6 keeps the buffer at a
  // few n x 4 B; buffering all k is barely faster and needs more memory.
  constexpr std::size_t kBatch = 6;
  std::vector<std::vector<NodeId>> rows(n);
  for (auto& row : rows) row.reserve(k);
  std::vector<NodeId> buffer(std::min(k, kBatch) * n);
  for (std::size_t first = 0; first < k; first += kBatch) {
    const std::size_t batch = std::min(kBatch, k - first);
    for (std::size_t b = 0; b < batch; ++b) {
      const std::span perm(buffer.data() + b * n, n);
      rng.fill_permutation(perm);
      // Remove fixed points by swapping each with its successor; the
      // result remains a permutation and has no fixed points.
      for (std::size_t i = 0; i < n; ++i) {
        if (perm[i] == i) std::swap(perm[i], perm[(i + 1) % n]);
      }
    }
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t b = 0; b < batch; ++b) {
        const NodeId v = buffer[b * n + u];
        assert(v != u);
        rows[u].push_back(v);
      }
    }
  }
  // Every round is a bijection, so every in-degree is exactly k.
  return Digraph::from_in_regular_rows(std::move(rows), k);
}

Digraph line_graph(std::size_t n) {
  Digraph g(n);
  for (NodeId u = 0; u + 1 < n; ++u) {
    g.add_edge(u, u + 1);
  }
  return g;
}

Digraph star_graph(std::size_t n) {
  assert(n >= 2);
  Digraph g(n);
  g.add_edge(0, 1);
  for (NodeId u = 1; u < n; ++u) {
    g.add_edge(u, 0);
  }
  return g;
}

}  // namespace gossip
