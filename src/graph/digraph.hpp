// Directed multigraph representing the membership graph (§4 of the paper).
//
// Vertices are nodes; an edge (u, v) exists for each occurrence of v in u's
// local view, with multiplicity. The graph is the object the paper's Markov
// chain evolves over; here it is used to snapshot simulations, to run
// connectivity checks, and to generate initial topologies.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/node_id.hpp"

namespace gossip {

class Digraph {
 public:
  // Creates a graph with `node_count` vertices and no edges.
  explicit Digraph(std::size_t node_count = 0);

  // Takes complete adjacency rows in which every vertex is the target of
  // exactly `in_degree` edges, so no in-degree is counted edge by edge.
  // For generators whose graphs are in-regular by construction, such as a
  // union of permutations; the caller guarantees the in-degrees.
  [[nodiscard]] static Digraph from_in_regular_rows(
      std::vector<std::vector<NodeId>> rows, std::size_t in_degree);

  [[nodiscard]] std::size_t node_count() const { return out_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edge_count_; }

  void add_edge(NodeId from, NodeId to);

  // Removes one occurrence of (from, to); returns false if absent.
  bool remove_edge(NodeId from, NodeId to);

  // Multiplicity of edge (from, to).
  [[nodiscard]] std::size_t edge_multiplicity(NodeId from, NodeId to) const;

  [[nodiscard]] std::size_t out_degree(NodeId node) const;
  [[nodiscard]] std::size_t in_degree(NodeId node) const;

  // Out-neighbors with multiplicity (the multiset u.lv restricted to
  // nonempty entries). Order is insertion order; not sorted.
  [[nodiscard]] const std::vector<NodeId>& out_neighbors(NodeId node) const {
    assert(node < out_.size());
    return out_[node];
  }

  // Number of self-edges (u, u) summed over all nodes.
  [[nodiscard]] std::size_t self_edge_count() const;

  // Number of edges beyond the first between each ordered pair, i.e. the
  // count of redundant parallel edges.
  [[nodiscard]] std::size_t parallel_edge_count() const;

  [[nodiscard]] bool operator==(const Digraph& other) const;

 private:
  std::vector<std::vector<NodeId>> out_;  // adjacency with multiplicity
  std::vector<std::size_t> in_degree_;
  std::size_t edge_count_ = 0;
};

}  // namespace gossip
