// Empirical measurement of Property M4 (spatial independence, §7.4).
//
// Three complementary measurements over a cluster snapshot:
//  * tagged dependence — the fraction of view entries whose dependence tag
//    is set (instances created by duplication, per the dependence MC);
//  * structural dependence — self-edges plus redundant duplicate ids
//    within the same view (the paper's labeling rules 1-2 in §2);
//  * reciprocity — the probability that an entry (u, v) is accompanied by
//    the reverse edge (v, u), a tag-free proxy for dependencies among
//    neighboring views: duplication + reinforcement create exactly such
//    pairs (high for keep-style protocols like push-pull, low for S&F).
//    It costs an O(s) view lookup per entry, so it is its own function
//    rather than part of the per-run health scan.
#pragma once

#include <cstddef>

#include "sim/cluster.hpp"

namespace gossip::sampling {

struct SpatialDependence {
  std::size_t entries = 0;            // nonempty view entries examined
  std::size_t tagged_dependent = 0;   // dependence tag set
  std::size_t self_edges = 0;         // u.lv[i] == u
  std::size_t intra_view_duplicates = 0;

  [[nodiscard]] double tagged_fraction() const;
  [[nodiscard]] double structural_fraction() const;
  // Tagged or structural (a conservative union; an entry counted in both
  // categories is counted once per category here, so this may exceed the
  // true union slightly).
  [[nodiscard]] double dependent_fraction_upper() const;
  // 1 - dependent_fraction_upper(): empirical lower estimate of α.
  [[nodiscard]] double independence_estimate() const;
};

// Measures over all live nodes' views.
[[nodiscard]] SpatialDependence measure_spatial_dependence(
    const sim::Cluster& cluster);

// Fraction of live nodes' nonempty view entries (u, v), v != u, whose
// reverse edge (v, u) is present; 0 when no live node has an entry.
[[nodiscard]] double reciprocity_fraction(const sim::Cluster& cluster);

}  // namespace gossip::sampling
