// Directed multigraph representing the membership graph (§4 of the paper).
//
// Vertices are nodes; an edge (u, v) exists for each occurrence of v in u's
// local view, with multiplicity. The graph is the object the paper's Markov
// chain evolves over; here it is used to snapshot simulations, to run
// connectivity checks, and to generate initial topologies.
//
// All adjacency rows live in one arena. Node u's row is the range
// [begin, begin + size) of it, with room up to begin + capacity. A row that
// ends the arena grows in place, so building a graph node by node leaves the
// rows packed back to back; any other full row moves to the arena's end
// with twice its capacity, and its old range stays unused. A builder that
// knows its edge count passes it to the constructor, so the arena is
// allocated once instead of grown by doubling.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/node_id.hpp"

namespace gossip {

class Digraph {
 public:
  // Creates a graph with `node_count` vertices and no edges, with arena
  // room for `edge_capacity` edges.
  explicit Digraph(std::size_t node_count = 0, std::size_t edge_capacity = 0);

  // Adopts a filled arena: node u's row is
  // heads[u * out_degree, (u + 1) * out_degree), and every vertex is the
  // target of exactly `in_degree` edges, so no in-degree is counted edge by
  // edge. For generators whose graphs are in-regular by construction, such
  // as a union of permutations; the caller guarantees the in-degrees.
  // Throws std::invalid_argument unless heads holds node_count * out_degree
  // ids.
  [[nodiscard]] static Digraph from_in_regular_rows(std::size_t node_count,
                                                    std::vector<NodeId> heads,
                                                    std::size_t out_degree,
                                                    std::size_t in_degree);

  [[nodiscard]] std::size_t node_count() const { return rows_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edge_count_; }

  void add_edge(NodeId from, NodeId to);

  // Removes one occurrence of (from, to); returns false if absent.
  bool remove_edge(NodeId from, NodeId to);

  // Multiplicity of edge (from, to).
  [[nodiscard]] std::size_t edge_multiplicity(NodeId from, NodeId to) const;

  [[nodiscard]] std::size_t out_degree(NodeId node) const;
  [[nodiscard]] std::size_t in_degree(NodeId node) const;

  // Out-neighbors with multiplicity (the multiset u.lv restricted to
  // nonempty entries). Order is insertion order, except that remove_edge
  // moves the row's last neighbor into the removed one's place; not
  // sorted. Valid until the graph is next modified.
  [[nodiscard]] std::span<const NodeId> out_neighbors(NodeId node) const {
    assert(node < rows_.size());
    const Row& row = rows_[node];
    return {arena_.data() + row.begin, row.size};
  }

  // Number of self-edges (u, u) summed over all nodes.
  [[nodiscard]] std::size_t self_edge_count() const;

  // Number of edges beyond the first between each ordered pair, i.e. the
  // count of redundant parallel edges.
  [[nodiscard]] std::size_t parallel_edge_count() const;

  [[nodiscard]] bool operator==(const Digraph& other) const;

 private:
  struct Row {
    std::size_t begin = 0;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
  };

  std::vector<NodeId> arena_;  // every row's out-neighbors, with multiplicity
  std::vector<Row> rows_;
  std::vector<std::size_t> in_degree_;
  std::size_t edge_count_ = 0;
};

}  // namespace gossip
