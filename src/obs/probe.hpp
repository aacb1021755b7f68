// The one cluster probe loop behind both probe_cluster entry points:
// obs::probe_cluster over the flat engine and sim::probe_cluster over the
// object engine. A compile-time template, so each entry point inlines its
// own slot walk (the flat probe is the hot observe-phase cost at scale).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/node_id.hpp"
#include "obs/timeseries.hpp"

namespace gossip::obs {

// Mean / sample sd / min / max; all zero for an empty input.
[[nodiscard]] DegreeSummary summarize(const std::vector<std::uint32_t>& degrees);

// `Views` adapts one engine: size(), live_count(), live(u), degree(u),
// capacity(u), for_each_entry(u, f) calling f(id, dependent) per occupied
// slot, and min_capacity(): the flat engine's fixed view size, which sizes
// the histograms up front, or 0 for the object engine, whose histograms
// grow to its largest live view.
template <class Views>
[[nodiscard]] FlatClusterProbe probe_views(
    const Views& views, std::vector<std::uint32_t>* occurrences) {
  const std::size_t n = views.size();
  std::vector<std::uint32_t> indegree(n, 0);
  std::vector<std::uint32_t> out_live;
  out_live.reserve(views.live_count());
  FlatClusterProbe probe;
  std::size_t max_capacity = views.min_capacity();
  if (max_capacity != 0) probe.outdegree_hist.assign(max_capacity + 1, 0);
  std::size_t occupied = 0;
  std::size_t capacity = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (!views.live(u)) continue;
    const std::size_t d = views.degree(u);
    const std::size_t cap = views.capacity(u);
    out_live.push_back(static_cast<std::uint32_t>(d));
    occupied += d;
    capacity += cap;
    max_capacity = std::max(max_capacity, cap);
    if (probe.outdegree_hist.size() < max_capacity + 1) {
      probe.outdegree_hist.resize(max_capacity + 1, 0);
    }
    ++probe.outdegree_hist[std::min(d, max_capacity)];
    views.for_each_entry(u, [&](NodeId id, bool dependent) {
      ++indegree[id];
      if (dependent) ++probe.dependent_entries;
    });
  }
  probe.indegree_hist.assign(2 * max_capacity + 1, 0);
  std::vector<std::uint32_t> in_live;
  in_live.reserve(out_live.size());
  for (NodeId u = 0; u < n; ++u) {
    if (views.live(u)) {
      in_live.push_back(indegree[u]);
      ++probe.indegree_hist[std::min<std::size_t>(indegree[u],
                                                  2 * max_capacity)];
    }
  }
  if (occurrences != nullptr) {
    occurrences->assign(n, UINT32_MAX);
    for (NodeId u = 0; u < n; ++u) {
      if (views.live(u)) (*occurrences)[u] = indegree[u];
    }
  }
  probe.live_nodes = out_live.size();
  probe.outdegree = summarize(out_live);
  probe.indegree = summarize(in_live);
  probe.occupied_slots = occupied;
  probe.empty_slot_fraction =
      capacity == 0 ? 0.0
                    : 1.0 - static_cast<double>(occupied) /
                                static_cast<double>(capacity);
  return probe;
}

}  // namespace gossip::obs
