// Observability probe over the pointer-based Cluster: the same sliced probe
// as obs::probe_cluster for FlatSendForgetCluster (obs/probe.hpp), plus the
// cumulative-counter bridge the object-engine drivers feed their observers.
#pragma once

#include "core/metrics.hpp"
#include "core/packed_view.hpp"
#include "obs/timeseries.hpp"
#include "sim/cluster.hpp"
#include "sim/network.hpp"

namespace gossip::sim {

// The object engine as obs::ProbeSlices sees it (the Views adapter of
// obs/probe.hpp): per-node view capacities, each view's packed row.
struct ObjectViews {
  const Cluster& cluster;

  [[nodiscard]] std::size_t size() const { return cluster.size(); }
  [[nodiscard]] bool live(NodeId u) const { return cluster.live(u); }
  [[nodiscard]] std::size_t degree(NodeId u) const {
    return cluster.node(u).view().degree();
  }
  [[nodiscard]] std::size_t capacity(NodeId u) const {
    return cluster.node(u).view().capacity();
  }
  [[nodiscard]] std::size_t min_capacity() const { return 0; }
  [[nodiscard]] const PackedViewEntry* row(NodeId u) const {
    return cluster.node(u).view().slots();
  }
};

// O(n * s) over live nodes; indegree counts id instances held in live
// views, and ids outside the cluster (a LocalView may hold any packable
// id) count toward no node's. Fills the same histogram / dependence-census
// / occurrence outputs as the flat probe (see obs/timeseries.hpp) so the
// TheoryOracle is cluster-representation agnostic.
[[nodiscard]] obs::FlatClusterProbe probe_cluster(
    const Cluster& cluster, std::vector<std::uint32_t>* occurrences = nullptr);

// Driver counters in the registry's cumulative layout. Protocol counters
// are aggregated over *live* nodes only (a dead node takes its history with
// it), so under churn successive snapshots may not be monotone — the
// time-series recorder clamps interval deltas at zero.
[[nodiscard]] obs::CumulativeCounters cumulative_counters(
    const ProtocolMetrics& protocol, const NetworkMetrics& network);

}  // namespace gossip::sim
