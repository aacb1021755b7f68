// Initial membership-topology generators.
//
// The paper's correctness properties must hold "starting from any
// sufficiently connected initial state" (§2); these generators produce the
// benign and adversarial starting topologies used by tests and benches.
#pragma once

#include <cstddef>
#include <functional>
#include <span>

#include "common/rng.hpp"
#include "graph/digraph.hpp"

namespace gossip {

// Every node gets `out_degree` distinct random out-neighbors (never itself).
// Requires out_degree < n. Weak connectivity is overwhelmingly likely for
// out_degree >= 3 but not guaranteed; callers that require it should check.
[[nodiscard]] Digraph random_out_regular(std::size_t n, std::size_t out_degree,
                                         Rng& rng);

// Directed ring 0->1->...->n-1->0 plus `chords_per_node` random extra edges
// per node. Weakly connected by construction.
[[nodiscard]] Digraph ring_with_chords(std::size_t n,
                                       std::size_t chords_per_node, Rng& rng);

// Union of `k` random fixed-point-free permutations: every node has
// outdegree k AND indegree k, hence sum degree ds(u) = 3k for all u.
// This is the initialization required by §6.1 (ds(u) = dm with dm = 3k).
// Requires n >= 2. Row u holds round r's image of u in slot r.
[[nodiscard]] Digraph permutation_regular(std::size_t n, std::size_t k,
                                          Rng& rng);

// The draws of permutation_regular, for callers that write its rows
// somewhere other than a Digraph (FlatSendForgetCluster's slab, through
// sim::install_permutation_regular). The k rounds are drawn in order, at
// most kPermutationBatch at a time; each batch goes to
// sink(first, count, perms), where perms[b * n + u] is the image of u under
// round first + b, that is the out-neighbor in slot first + b of row u. The
// buffer (count x n x 4 B) is freed on return. Throws std::invalid_argument
// if n < 2.
inline constexpr std::size_t kPermutationBatch = 4;
using PermutationBatchSink = std::function<void(
    std::size_t first, std::size_t count, std::span<const NodeId> perms)>;
void draw_permutation_rounds(std::size_t n, std::size_t k, Rng& rng,
                             const PermutationBatchSink& sink);

// Adversarial chain u -> u+1 (weakly connected, maximally stretched).
[[nodiscard]] Digraph line_graph(std::size_t n);

// Adversarial star: every node points at node 0 (maximal in-degree
// imbalance). Node 0 points at node 1 so that it is not a sink.
[[nodiscard]] Digraph star_graph(std::size_t n);

}  // namespace gossip
