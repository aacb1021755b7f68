#include "sampling/health.hpp"

#include <cmath>
#include <sstream>
#include <vector>

#include "common/stats.hpp"
#include "graph/spectral.hpp"
#include "obs/probe.hpp"
#include "sampling/spatial.hpp"
#include "sim/cluster_probe.hpp"

namespace gossip::sampling {

HealthReport measure_health(const sim::Cluster& cluster, bool with_spectral) {
  HealthReport report;
  report.nodes = cluster.size();
  report.live = cluster.live_count();

  RunningStats out_stats;
  std::vector<std::size_t> live_in(cluster.size(), 0);
  std::size_t dead_refs = 0;
  std::size_t refs = 0;
  // Live nodes in id order, each view's ids copied into one scratch row.
  std::vector<NodeId> ids;
  const std::vector<bool>& live = cluster.liveness();
  for (NodeId u = 0; u < cluster.size(); ++u) {
    if (!live[u]) continue;
    const LocalView& view = cluster.node(u).view();
    out_stats.add(static_cast<double>(view.degree()));
    ids.resize(view.capacity());
    const std::size_t degree = view.copy_ids(ids.data());
    for (std::size_t j = 0; j < degree; ++j) {
      const NodeId v = ids[j];
      ++refs;
      if (v >= cluster.size() || !live[v]) {
        ++dead_refs;
      } else {
        ++live_in[v];
      }
    }
  }
  report.edges = refs;
  report.out_mean = out_stats.mean();
  report.out_sd = out_stats.stddev();

  RunningStats in_stats;
  for (NodeId u = 0; u < cluster.size(); ++u) {
    if (live[u]) in_stats.add(static_cast<double>(live_in[u]));
  }
  report.in_mean = in_stats.mean();
  report.in_sd = in_stats.stddev();
  report.dead_reference_fraction =
      refs == 0 ? 0.0
                : static_cast<double>(dead_refs) / static_cast<double>(refs);

  // The probe's component census is exact (obs/probe.hpp), and it needs
  // neither a graph copy nor per-node adjacency lists.
  const obs::FlatClusterProbe probe =
      obs::ProbeSlices().run(sim::ObjectViews{cluster}, /*components=*/true);
  report.connected = probe.largest_component == report.live;

  const auto metrics = cluster.aggregate_metrics();
  report.duplication_rate = metrics.duplication_rate();
  report.deletion_rate = metrics.deletion_rate_received();
  report.self_loop_rate = metrics.self_loop_rate();

  const auto dep = measure_spatial_dependence(cluster);
  report.dependent_fraction = dep.dependent_fraction_upper();
  report.independence = dep.independence_estimate();

  if (with_spectral && report.live == report.nodes) {
    const Digraph snapshot = cluster.snapshot();
    if (snapshot.edge_count() > 0) {
      report.spectral_gap = estimate_spectral_gap(snapshot).spectral_gap;
    }
  }
  return report;
}

std::string HealthReport::to_string() const {
  std::ostringstream out;
  out << "nodes " << live << "/" << nodes << ", edges " << edges
      << (connected ? ", connected" : ", PARTITIONED") << "\n";
  out << "outdegree " << out_mean << " +- " << out_sd << ", indegree "
      << in_mean << " +- " << in_sd << "\n";
  out << "dup " << duplication_rate << ", del " << deletion_rate
      << ", self-loop " << self_loop_rate << "\n";
  out << "independent entries " << independence * 100.0 << "%, dead refs "
      << dead_reference_fraction * 100.0 << "%";
  if (spectral_gap > 0.0) {
    out << ", spectral gap " << spectral_gap;
  }
  return out.str();
}

}  // namespace gossip::sampling
