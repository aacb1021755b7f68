#include "graph/graph_stats.hpp"

#include "common/stats.hpp"

namespace gossip {

DegreeSummary degree_summary(const Digraph& g) {
  DegreeSummary s;
  if (g.node_count() == 0) return s;
  RunningStats outs;
  RunningStats ins;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    outs.add(static_cast<double>(g.out_degree(u)));
    ins.add(static_cast<double>(g.in_degree(u)));
  }
  s.out_mean = outs.mean();
  s.out_variance = outs.variance();
  s.in_mean = ins.mean();
  s.in_variance = ins.variance();
  s.out_min = static_cast<std::size_t>(outs.min());
  s.out_max = static_cast<std::size_t>(outs.max());
  s.in_min = static_cast<std::size_t>(ins.min());
  s.in_max = static_cast<std::size_t>(ins.max());
  return s;
}

Histogram out_degree_histogram(const Digraph& g) {
  Histogram h;
  for (NodeId u = 0; u < g.node_count(); ++u) h.add(g.out_degree(u));
  return h;
}

Histogram in_degree_histogram(const Digraph& g) {
  Histogram h;
  for (NodeId u = 0; u < g.node_count(); ++u) h.add(g.in_degree(u));
  return h;
}

Histogram sum_degree_histogram(const Digraph& g) {
  Histogram h;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    h.add(g.out_degree(u) + 2 * g.in_degree(u));
  }
  return h;
}

}  // namespace gossip
