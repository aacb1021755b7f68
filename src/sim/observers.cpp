#include "sim/observers.hpp"

#include <algorithm>

#include "sim/cluster_probe.hpp"

namespace gossip::sim {

void ObserverSet::attach_time_series(obs::RoundTimeSeries* series) {
  series_ = series;
  if (series != nullptr) set_observation_stride(series->stride());
}

void ObserverSet::set_observation_stride(std::uint64_t stride) {
  stride_ = std::max<std::uint64_t>(1, stride);
}

void ObserverSet::observe(const ObservedRound& sample) {
  const std::uint64_t round = sample.round;
  const obs::CumulativeCounters& c = sample.counters;
  if (series_ != nullptr) {
    const obs::FlatClusterProbe& p = *sample.probe;
    series_->record(round, p.outdegree, p.indegree, p.live_nodes,
                    p.empty_slot_fraction, c);
  }
  if (watchdog_ != nullptr) {
    if (sample.flat != nullptr) {
      watchdog_->check_cluster(round, *sample.flat, sample.nodes_per_shard);
    } else {
      const Cluster& cluster = *sample.cluster;
      for (NodeId u = 0; u < cluster.size(); ++u) {
        if (!cluster.live(u)) continue;
        watchdog_->check_degree(round, u, /*shard=*/0,
                                cluster.node(u).view().degree());
      }
    }
    if (sample.conserved) watchdog_->check_conservation(round, c);
    watchdog_->check_rates(round, c);
  }
  if (oracle_ != nullptr) {
    oracle_->observe(round, *sample.probe, occurrences_, c);
  }
  if (retune_ != nullptr) {
    // Reads the monitor the oracle just updated.
    retune_->observe(round, c);
  }
  if (recovery_ != nullptr) {
    recovery_->observe(round, *sample.probe, sample.flat, watchdog_,
                       oracle_ != nullptr ? &oracle_->monitor() : nullptr);
  }
  if (detection_ != nullptr) {
    const Cluster& cluster = *sample.cluster;
    detection_->observe(
        round, cluster.size(), [&cluster](NodeId u) { return cluster.live(u); },
        [&cluster](NodeId u, NodeId w) {
          return cluster.node(u).member_verdict(w);
        });
  }
  if (streamer_ != nullptr) {
    // Capture reads registry state only.
    streamer_->observe(round);
  }
}

void ObserverSet::observe(std::uint64_t round, const Cluster& cluster,
                          const NetworkMetrics& network, bool conserved) {
  obs::FlatClusterProbe probe;
  if (needs_probe()) probe = probe_cluster(cluster, occurrences());
  observe({.round = round,
           .probe = &probe,
           .counters =
               cumulative_counters(cluster.aggregate_metrics(), network),
           .cluster = &cluster,
           .conserved = conserved});
}

}  // namespace gossip::sim
