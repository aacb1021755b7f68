// A cluster of protocol instances plus liveness bookkeeping.
//
// The cluster is the "world" the drivers act on: it owns one PeerProtocol
// per node id, tracks which nodes are alive (churn), and converts between
// protocol views and membership graphs (§4's graph model) for analysis.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/node_id.hpp"
#include "core/protocol.hpp"
#include "graph/digraph.hpp"

namespace gossip::sim {

class Cluster {
 public:
  using ProtocolFactory =
      std::function<std::unique_ptr<PeerProtocol>(NodeId id)>;

  // Creates `node_count` protocol instances via `factory`, all alive.
  Cluster(std::size_t node_count, const ProtocolFactory& factory);

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] std::size_t live_count() const { return live_count_; }

  [[nodiscard]] PeerProtocol& node(NodeId id);
  [[nodiscard]] const PeerProtocol& node(NodeId id) const;

  [[nodiscard]] bool live(NodeId id) const;

  // Node id's view row: node(id).view().slots(), kept beside the object
  // pointer so that a caller holding only the id reaches both addresses
  // without loading the object first. A LocalView never reallocates its
  // row, so only creating or replacing an object moves it.
  [[nodiscard]] const PackedViewEntry* row(NodeId id) const {
    assert(id < rows_.size());
    return rows_[id];
  }

  // Hints node u's protocol object (its first three lines: vptr, view
  // handle, metrics, config) and every line of its view row toward cache.
  // Both addresses come from the id, so the two misses overlap instead of
  // the row waiting for the object that points to it. The round driver
  // issues this four picks ahead, and the direct network for a receiver
  // before its fate draws. Requires u < size(): a view may hold larger ids,
  // so callers check. No architectural effect.
  //
  // always_inline for the reason FlatSendForgetCluster::prefetch_node
  // gives: GCC deletes a call to a function whose only effects are
  // prefetches unless it was inlined first. The prefetch_codegen_cluster
  // test checks that a call still emits a prefetch instruction.
  [[gnu::always_inline]] void prefetch_node(NodeId u) const {
    constexpr std::uintptr_t kLine = 64;
    const auto object = reinterpret_cast<std::uintptr_t>(nodes_[u].get());
    for (std::uintptr_t k = 0; k < 3; ++k) {
      __builtin_prefetch(reinterpret_cast<const void*>(object + k * kLine));
    }
    const auto row = reinterpret_cast<std::uintptr_t>(rows_[u]);
    const std::uintptr_t end = row + row_bytes_;
    for (std::uintptr_t line = row & ~(kLine - 1); line < end;
         line += kLine) {
      __builtin_prefetch(reinterpret_cast<const void*>(line));
    }
  }

  // Marks a node dead (leave/failure: it simply stops participating, §5).
  // Its view is left untouched; other views keep referencing it until the
  // protocol washes the id out.
  void kill(NodeId id);

  // Revives a node with a fresh protocol instance (rejoin).
  void revive(NodeId id, const ProtocolFactory& factory);

  // Appends a brand-new node; returns its id.
  NodeId spawn(const ProtocolFactory& factory);

  // Uniformly random live node. Requires live_count() > 0. O(1): one draw
  // into the dense live-id array (kill/revive/spawn maintain it with
  // swap-remove), so churn-heavy runs don't degrade toward rejection or
  // scan costs as the live fraction shrinks.
  [[nodiscard]] NodeId random_live_node(Rng& rng) const;

  // Ids of all live nodes, ascending. O(live log live).
  [[nodiscard]] std::vector<NodeId> live_nodes() const;

  [[nodiscard]] const std::vector<bool>& liveness() const { return live_; }

  // Installs views from a membership graph: node u's view receives the
  // multiset of out-neighbors of u (truncated at capacity).
  void install_graph(const Digraph& graph);

  // Snapshot of all views (live and dead) as a membership graph over
  // size() vertices. A view may hold ids the cluster does not have (a
  // LocalView accepts any packable id); they are left out, as the probe
  // leaves them out.
  [[nodiscard]] Digraph snapshot() const;

  // Aggregated metrics over live nodes.
  [[nodiscard]] ProtocolMetrics aggregate_metrics() const;

 private:
  // Records node id's row address and widens row_bytes_ to its row.
  void track_row(NodeId id);

  std::vector<std::unique_ptr<PeerProtocol>> nodes_;
  // rows_[id] == nodes_[id]->view().slots(), refreshed wherever an object
  // is created or replaced.
  std::vector<const PackedViewEntry*> rows_;
  // Bytes of the widest row any node has had; prefetch_node covers this
  // many from each row (a narrower row's tail hint is harmless).
  std::size_t row_bytes_ = 0;
  std::vector<bool> live_;
  // Dense array of live ids (arbitrary order) plus each id's position in
  // it; kill() swap-removes, revive()/spawn() append. Powers O(1) uniform
  // live-node sampling.
  std::vector<NodeId> live_ids_;
  std::vector<std::size_t> live_pos_;
  std::size_t live_count_ = 0;
};

}  // namespace gossip::sim
