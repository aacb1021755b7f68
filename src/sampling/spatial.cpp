#include "sampling/spatial.hpp"

#include <algorithm>

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
  for (NodeId u = 0; u < cluster.size(); ++u) {
    if (!cluster.live(u)) continue;
    const auto& view = cluster.node(u).view();
    out.entries += view.degree();
    out.intra_view_duplicates += view.intra_view_duplicates();
    for (const auto& entry : view.entries()) {
      if (entry.dependent) ++out.tagged_dependent;
      if (entry.id == u) ++out.self_edges;
    }
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
