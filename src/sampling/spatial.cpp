#include "sampling/spatial.hpp"

#include <algorithm>
#include <vector>

#include "common/id_set.hpp"

namespace gossip::sampling {

double SpatialDependence::tagged_fraction() const {
  if (entries == 0) return 0.0;
  return static_cast<double>(tagged_dependent) / static_cast<double>(entries);
}

double SpatialDependence::structural_fraction() const {
  if (entries == 0) return 0.0;
  return static_cast<double>(self_edges + intra_view_duplicates) /
         static_cast<double>(entries);
}

double SpatialDependence::dependent_fraction_upper() const {
  if (entries == 0) return 0.0;
  const std::size_t dependent =
      std::min(entries, tagged_dependent + self_edges + intra_view_duplicates);
  return static_cast<double>(dependent) / static_cast<double>(entries);
}

double SpatialDependence::independence_estimate() const {
  return 1.0 - dependent_fraction_upper();
}

SpatialDependence measure_spatial_dependence(const sim::Cluster& cluster) {
  SpatialDependence out;
  // Scratch reused across views, so the scan allocates nothing per view.
  std::vector<NodeId> ids;
  IdSet seen;
  const std::vector<bool>& live = cluster.liveness();
  for (NodeId u = 0; u < cluster.size(); ++u) {
    if (!live[u]) continue;
    const LocalView& view = cluster.node(u).view();
    ids.resize(view.capacity());
    const std::size_t degree = view.copy_ids(ids.data());
    out.entries += degree;
    for (std::size_t j = 0; j < degree; ++j) {
      out.self_edges += ids[j] == u ? 1 : 0;
    }
    out.tagged_dependent += view.dependent_count();
    out.intra_view_duplicates += view.intra_view_duplicates(seen);
  }
  return out;
}

double reciprocity_fraction(const sim::Cluster& cluster) {
  std::size_t entries = 0;
  std::size_t reciprocal = 0;
  for (NodeId u = 0; u < cluster.size(); ++u) {
    if (!cluster.live(u)) continue;
    const auto& view = cluster.node(u).view();
    entries += view.degree();
    for (const auto& entry : view.entries()) {
      if (entry.id != u && entry.id < cluster.size() &&
          cluster.node(entry.id).view().contains(u)) {
        ++reciprocal;
      }
    }
  }
  if (entries == 0) return 0.0;
  return static_cast<double>(reciprocal) / static_cast<double>(entries);
}

}  // namespace gossip::sampling
