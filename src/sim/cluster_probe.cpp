#include "sim/cluster_probe.hpp"

#include "obs/probe.hpp"

namespace gossip::sim {

namespace {

// The object engine as probe_views sees it: per-node view capacities.
struct ObjectViews {
  const Cluster& cluster;

  [[nodiscard]] std::size_t size() const { return cluster.size(); }
  [[nodiscard]] std::size_t live_count() const { return cluster.live_count(); }
  [[nodiscard]] bool live(NodeId u) const { return cluster.live(u); }
  [[nodiscard]] std::size_t degree(NodeId u) const {
    return cluster.node(u).view().degree();
  }
  [[nodiscard]] std::size_t capacity(NodeId u) const {
    return cluster.node(u).view().capacity();
  }
  [[nodiscard]] std::size_t min_capacity() const { return 0; }
  template <class F>
  void for_each_entry(NodeId u, F&& f) const {
    const LocalView& view = cluster.node(u).view();
    for (std::size_t i = 0; i < view.capacity(); ++i) {
      if (!view.slot_empty(i)) f(view.entry(i).id, view.entry(i).dependent);
    }
  }
};

}  // namespace

obs::FlatClusterProbe probe_cluster(const Cluster& cluster,
                                    std::vector<std::uint32_t>* occurrences) {
  return obs::probe_views(ObjectViews{cluster}, occurrences);
}

obs::CumulativeCounters cumulative_counters(const ProtocolMetrics& protocol,
                                            const NetworkMetrics& network) {
  obs::CumulativeCounters c;
  c.actions = protocol.actions_initiated;
  c.self_loops = protocol.self_loop_actions;
  c.duplications = protocol.duplications;
  c.deletions = protocol.deletions;
  c.sent = network.sent;
  c.lost = network.lost;
  c.delivered = network.delivered;
  c.to_dead = network.to_dead;
  c.faulted = network.faulted;
  return c;
}

}  // namespace gossip::sim
