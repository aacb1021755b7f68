#include "graph/digraph.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "common/id_set.hpp"

namespace gossip {

namespace {

// Copies `row` into `out`, sorted, reusing out's storage across rows.
void sorted_copy(std::span<const NodeId> row, std::vector<NodeId>& out) {
  out.assign(row.begin(), row.end());
  std::sort(out.begin(), out.end());
}

}  // namespace

Digraph::Digraph(std::size_t node_count, std::size_t edge_capacity)
    : rows_(node_count), in_degree_(node_count, 0) {
  arena_.reserve(edge_capacity);
}

Digraph Digraph::from_in_regular_rows(std::size_t node_count,
                                      std::vector<NodeId> heads,
                                      std::size_t out_degree,
                                      std::size_t in_degree) {
  if (heads.size() != node_count * out_degree) {
    throw std::invalid_argument("arena size is not node_count * out_degree");
  }
  Digraph g;
  g.arena_ = std::move(heads);
  g.rows_.resize(node_count);
  const auto degree = static_cast<std::uint32_t>(out_degree);
  for (std::size_t u = 0; u < node_count; ++u) {
    g.rows_[u] = Row{.begin = u * out_degree, .size = degree,
                     .capacity = degree};
  }
  g.in_degree_.assign(node_count, in_degree);
  g.edge_count_ = node_count * out_degree;
  return g;
}

void Digraph::add_edge(NodeId from, NodeId to) {
  assert(from < rows_.size());
  assert(to < rows_.size());
  Row& row = rows_[from];
  if (row.size == row.capacity) {
    if (row.begin + row.capacity == arena_.size()) {
      // The row ends the arena: grow it in place.
      arena_.emplace_back();
      ++row.capacity;
    } else {
      // Move the row to the arena's end with twice the room.
      assert(row.capacity < (std::uint32_t{1} << 31));
      const std::size_t begin = arena_.size();
      const std::uint32_t capacity =
          std::max(2 * row.capacity, std::uint32_t{1});
      arena_.resize(begin + capacity);
      std::copy_n(arena_.data() + row.begin, row.size, arena_.data() + begin);
      row.begin = begin;
      row.capacity = capacity;
    }
  }
  arena_[row.begin + row.size] = to;
  ++row.size;
  ++in_degree_[to];
  ++edge_count_;
}

bool Digraph::remove_edge(NodeId from, NodeId to) {
  assert(from < rows_.size());
  Row& row = rows_[from];
  NodeId* const first = arena_.data() + row.begin;
  NodeId* const last = first + row.size;
  NodeId* const it = std::find(first, last, to);
  if (it == last) return false;
  // Order within the adjacency list is not meaningful; swap-erase is O(1).
  *it = *(last - 1);
  --row.size;
  --in_degree_[to];
  --edge_count_;
  return true;
}

std::size_t Digraph::edge_multiplicity(NodeId from, NodeId to) const {
  const auto adj = out_neighbors(from);
  return static_cast<std::size_t>(std::count(adj.begin(), adj.end(), to));
}

std::size_t Digraph::out_degree(NodeId node) const {
  assert(node < rows_.size());
  return rows_[node].size;
}

std::size_t Digraph::in_degree(NodeId node) const {
  assert(node < in_degree_.size());
  return in_degree_[node];
}

std::size_t Digraph::self_edge_count() const {
  std::size_t count = 0;
  for (NodeId u = 0; u < rows_.size(); ++u) {
    count += edge_multiplicity(u, u);
  }
  return count;
}

std::size_t Digraph::parallel_edge_count() const {
  std::size_t redundant = 0;
  IdSet seen;
  for (NodeId u = 0; u < rows_.size(); ++u) {
    const auto adj = out_neighbors(u);
    seen.reset(adj.size());
    for (const NodeId v : adj) redundant += seen.insert(v) ? 0 : 1;
  }
  return redundant;
}

bool Digraph::operator==(const Digraph& other) const {
  if (rows_.size() != other.rows_.size()) return false;
  if (edge_count_ != other.edge_count_) return false;
  std::vector<NodeId> a;
  std::vector<NodeId> b;
  for (NodeId u = 0; u < rows_.size(); ++u) {
    if (rows_[u].size != other.rows_[u].size) return false;
    sorted_copy(out_neighbors(u), a);
    sorted_copy(other.out_neighbors(u), b);
    if (a != b) return false;
  }
  return true;
}

}  // namespace gossip
