#include "sim/cluster_probe.hpp"

#include "obs/probe.hpp"

namespace gossip::sim {

obs::FlatClusterProbe probe_cluster(const Cluster& cluster,
                                    std::vector<std::uint32_t>* occurrences) {
  return obs::ProbeSlices().run(ObjectViews{cluster}, /*components=*/false,
                                occurrences);
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
