// Observability probe over the pointer-based Cluster: the same probe loop
// as obs::probe_cluster for FlatSendForgetCluster (obs/probe.hpp), plus the
// cumulative-counter bridge the object-engine drivers feed their observers.
#pragma once

#include "core/metrics.hpp"
#include "obs/timeseries.hpp"
#include "sim/cluster.hpp"
#include "sim/network.hpp"

namespace gossip::sim {

// O(n * s) over live nodes; indegree counts id instances held in live
// views. Fills the same histogram / dependence-census / occurrence outputs
// as the flat probe (see obs/timeseries.hpp) so the TheoryOracle is
// cluster-representation agnostic.
[[nodiscard]] obs::FlatClusterProbe probe_cluster(
    const Cluster& cluster, std::vector<std::uint32_t>* occurrences = nullptr);

// Driver counters in the registry's cumulative layout. Protocol counters
// are aggregated over *live* nodes only (a dead node takes its history with
// it), so under churn successive snapshots may not be monotone — the
// time-series recorder clamps interval deltas at zero.
[[nodiscard]] obs::CumulativeCounters cumulative_counters(
    const ProtocolMetrics& protocol, const NetworkMetrics& network);

}  // namespace gossip::sim
