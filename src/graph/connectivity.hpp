// Connectivity queries over membership graphs.
//
// The paper's global MC is defined over *weakly connected* membership graphs
// (§4, §7.1); these checks are used by tests and benches to verify that S&F
// keeps the overlay connected under loss and churn.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/digraph.hpp"

namespace gossip {

// True if the graph, viewed as undirected, has a single connected component
// covering all vertices. An empty graph is considered connected; a graph
// with isolated vertices is not (unless it has exactly one vertex).
[[nodiscard]] bool is_weakly_connected(const Digraph& g);

// Weak connectivity restricted to a subset of "live" vertices: edges to or
// from non-live vertices are ignored. Used under churn, where failed nodes
// may still be referenced by views.
[[nodiscard]] bool is_weakly_connected_among(const Digraph& g,
                                             const std::vector<bool>& live);

// Undirected eccentricity-based diameter estimate: the maximum BFS depth
// over `sample_count` start vertices (exact when sample_count >= n).
// Returns 0 for graphs with fewer than 2 vertices; returns SIZE_MAX if some
// sampled vertex cannot reach the whole graph (disconnected).
[[nodiscard]] std::size_t estimate_undirected_diameter(const Digraph& g,
                                                       std::size_t sample_count);

}  // namespace gossip
