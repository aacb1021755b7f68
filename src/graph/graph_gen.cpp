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
  Digraph g(n, n * out_degree);
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
  Digraph g(n, n * (1 + chords_per_node));
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

void draw_permutation_rounds(std::size_t n, std::size_t k, Rng& rng,
                             const PermutationBatchSink& sink) {
  if (n < 2) throw std::invalid_argument("need at least 2 nodes");
  // Round r draws the r-th permutation, so the draws equal those of adding
  // one edge per node per round; only the buffering differs.
  std::vector<NodeId> buffer(std::min(k, kPermutationBatch) * n);
  for (std::size_t first = 0; first < k; first += kPermutationBatch) {
    const std::size_t count = std::min(kPermutationBatch, k - first);
    for (std::size_t b = 0; b < count; ++b) {
      const std::span perm(buffer.data() + b * n, n);
      rng.fill_permutation(perm);
      // Remove fixed points by swapping each with its successor; the
      // result remains a permutation and has no fixed points.
      for (std::size_t i = 0; i < n; ++i) {
        if (perm[i] == i) std::swap(perm[i], perm[(i + 1) % n]);
      }
    }
    sink(first, count, std::span<const NodeId>(buffer.data(), count * n));
  }
}

Digraph permutation_regular(std::size_t n, std::size_t k, Rng& rng) {
  // The rows are written straight into the graph's arena, slot r of row u
  // at heads[u * k + r]. The permutation buffer is gone before the row
  // table and the in-degree array are allocated, so the peak is the larger
  // of arena + buffer and arena + row table + in-degrees.
  std::vector<NodeId> heads(n * k);
  draw_permutation_rounds(
      n, k, rng,
      [&](std::size_t first, std::size_t count,
          std::span<const NodeId> perms) {
        for (std::size_t u = 0; u < n; ++u) {
          NodeId* const row = heads.data() + u * k + first;
          for (std::size_t b = 0; b < count; ++b) {
            assert(perms[b * n + u] != u);
            row[b] = perms[b * n + u];
          }
        }
      });
  // Every round is a bijection, so every in-degree is exactly k.
  return Digraph::from_in_regular_rows(n, std::move(heads), k, k);
}

Digraph line_graph(std::size_t n) {
  Digraph g(n, n);
  for (NodeId u = 0; u + 1 < n; ++u) {
    g.add_edge(u, u + 1);
  }
  return g;
}

Digraph star_graph(std::size_t n) {
  assert(n >= 2);
  Digraph g(n, n);
  g.add_edge(0, 1);
  for (NodeId u = 1; u < n; ++u) {
    g.add_edge(u, 0);
  }
  return g;
}

}  // namespace gossip
