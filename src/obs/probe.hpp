// The one cluster probe behind every probe entry point: obs::probe_cluster
// over the flat engine, sim::probe_cluster over the object engine, the
// sharded driver's parallel observe phase, and the recovery tracker's
// connectivity lane.
//
// A probe is cut into *slices* over contiguous node ranges. A slice walks
// the rows of its own range into private partials: the outdegree histogram,
// occupied / capacity / dependent / live counts, a per-id in-degree array,
// and a union-find forest over the edges of its rows. One *merge* then
// folds the partials in slice order: integer sums, the forests linked into
// slice 0's, and the two degree summaries computed in node order. Neither
// an integer sum nor a component partition depends on where the ranges are
// cut, so the merged probe is bit-identical for any slicing. The serial
// entry points are one slice over [0, n) followed by the same merge.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/node_id.hpp"
#include "core/flat_send_forget.hpp"
#include "obs/timeseries.hpp"

namespace gossip::obs {

// The flat engine as a probe sees it: every live row holds `s` slots.
//
// A `Views` adapter exposes size(), live(u), degree(u), capacity(u),
// for_each_entry(u, f) calling f(id, dependent) per occupied slot, and
// min_capacity(): the flat engine's fixed view size, which sizes the
// histograms up front, or 0 for the object engine, whose histograms grow to
// its largest live view.
struct FlatViews {
  explicit FlatViews(const FlatSendForgetCluster& flat)
      : cluster(flat), s(flat.view_size()) {}

  const FlatSendForgetCluster& cluster;
  std::size_t s;

  [[nodiscard]] std::size_t size() const { return cluster.size(); }
  [[nodiscard]] bool live(NodeId u) const { return cluster.live(u); }
  [[nodiscard]] std::size_t degree(NodeId u) const { return cluster.degree(u); }
  [[nodiscard]] std::size_t capacity(NodeId) const { return s; }
  [[nodiscard]] std::size_t min_capacity() const { return s; }
  template <class F>
  void for_each_entry(NodeId u, F&& f) const {
    const PackedViewEntry* row = cluster.slots(u);
    for (std::size_t i = 0; i < s; ++i) {
      if (!row[i].empty()) f(row[i].id_unchecked(), row[i].dependent());
    }
  }
};

// Reusable probe scratch for a fixed number of slices. Distinct slices
// write disjoint scratch, so they may run concurrently over a quiescent
// cluster; prepare and merge are single-threaded.
class ProbeSlices {
 public:
  // Sizes the scratch for `slices` node ranges over `n` nodes, keeping
  // allocations across calls of the same shape. `degrees` takes the degree
  // census (every FlatClusterProbe field but largest_component); its
  // merged per-id in-degree array is `*occurrences` when that is non-null
  // (the oracle's occurrence census) and internal scratch otherwise.
  // `components` takes the weak-component census (largest_component).
  void prepare(std::size_t n, std::size_t slices, bool degrees,
               bool components,
               std::vector<std::uint32_t>* occurrences = nullptr) {
    n_ = n;
    degrees_ = degrees;
    components_ = components;
    partials_.resize(slices);
    const auto keep = [n](std::vector<std::uint32_t>& v, bool needed) {
      if (needed) {
        v.resize(n);
      } else {
        std::vector<std::uint32_t>().swap(v);
      }
    };
    occurrences_ = occurrences;
    keep(own_indegree_, degrees && occurrences == nullptr);
    if (degrees) merged_indegree().resize(n);
    for (std::size_t k = 0; k < slices; ++k) {
      keep(partials_[k].indegree, degrees && k != 0);
      keep(partials_[k].forest, components);
    }
    // Component sizes are counted into slice 1's in-degree partial once the
    // merge has consumed it; only a probe without one needs its own array.
    counts_in_partial_ = degrees && slices > 1;
    keep(counts_, components && !counts_in_partial_);
  }

  // Walks the rows of [lo, hi) into slice k's partials.
  template <class Views>
  void slice(const Views& views, std::size_t k, NodeId lo, NodeId hi) {
    if (degrees_ && components_) {
      slice_impl<true, true>(views, k, lo, hi);
    } else if (degrees_) {
      slice_impl<true, false>(views, k, lo, hi);
    } else if (components_) {
      slice_impl<false, true>(views, k, lo, hi);
    }
  }

  // Folds the partials in slice order; call after every slice finished.
  template <class Views>
  [[nodiscard]] FlatClusterProbe merge(const Views& views);

  // The serial probe: prepare for one slice, walk [0, n), merge.
  template <class Views>
  [[nodiscard]] FlatClusterProbe run(
      const Views& views, bool degrees, bool components,
      std::vector<std::uint32_t>* occurrences = nullptr) {
    prepare(views.size(), 1, degrees, components, occurrences);
    slice(views, 0, 0, static_cast<NodeId>(views.size()));
    return merge(views);
  }

  // The last merge's per-id in-degree census: occurrence counts across
  // live views for live ids, UINT32_MAX (kDeadNodeOccurrence) for dead
  // ones. Empty unless the degree census ran.
  [[nodiscard]] const std::vector<std::uint32_t>& indegree() const {
    return occurrences_ != nullptr ? *occurrences_ : own_indegree_;
  }

 private:
  struct alignas(64) Partial {
    std::vector<std::uint64_t> outdegree_hist;
    std::size_t max_capacity = 0;
    std::uint64_t live = 0;
    std::uint64_t occupied = 0;
    std::uint64_t capacity = 0;
    std::uint64_t dependent = 0;
    // Per-id in-degree from this slice's rows; slice 0 counts straight
    // into the merged array instead.
    std::vector<std::uint32_t> indegree;
    // Union-find parents over every id, linked by index (the smaller root
    // wins), so no size array is needed.
    std::vector<std::uint32_t> forest;
  };

  // Mean / sample sd / min / max over values fed twice in the same order:
  // once through add, then through add_square once the mean is known.
  struct Summary {
    double sum = 0.0;
    double sq = 0.0;
    std::uint32_t min = UINT32_MAX;
    std::uint32_t max = 0;
    std::size_t count = 0;

    void add(std::uint32_t d) {
      sum += d;
      min = std::min(min, d);
      max = std::max(max, d);
      ++count;
    }
    [[nodiscard]] double mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
    void add_square(std::uint32_t d, double mean) {
      const double c = static_cast<double>(d) - mean;
      sq += c * c;
    }
    [[nodiscard]] DegreeSummary finish() const {
      if (count == 0) return {};
      return {.mean = mean(),
              .sd = count > 1 ? std::sqrt(sq / static_cast<double>(count - 1))
                              : 0.0,
              .min = min,
              .max = max};
    }
  };

  static std::uint32_t find(std::uint32_t* parent, std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];  // path halving
      x = parent[x];
    }
    return x;
  }
  static void link(std::uint32_t* parent, std::uint32_t a, std::uint32_t b) {
    a = find(parent, a);
    b = find(parent, b);
    if (a == b) return;
    if (a < b) {
      parent[b] = a;
    } else {
      parent[a] = b;
    }
  }

  [[nodiscard]] std::vector<std::uint32_t>& merged_indegree() {
    return occurrences_ != nullptr ? *occurrences_ : own_indegree_;
  }
  template <bool kDegrees, bool kComponents, class Views>
  void slice_impl(const Views& views, std::size_t k, NodeId lo, NodeId hi);
  template <class Views>
  [[nodiscard]] std::uint64_t largest_component(const Views& views);

  std::size_t n_ = 0;
  bool degrees_ = false;
  bool components_ = false;
  bool counts_in_partial_ = false;
  std::vector<Partial> partials_;
  std::vector<std::uint32_t>* occurrences_ = nullptr;  // borrowed
  std::vector<std::uint32_t> own_indegree_;
  std::vector<std::uint32_t> counts_;
};

template <bool kDegrees, bool kComponents, class Views>
void ProbeSlices::slice_impl(const Views& views, std::size_t k, NodeId lo,
                             NodeId hi) {
  const std::size_t n = n_;
  Partial& p = partials_[k];
  std::size_t max_capacity = views.min_capacity();
  p.outdegree_hist.assign(max_capacity == 0 ? 0 : max_capacity + 1, 0);
  std::uint64_t live = 0;
  std::uint64_t occupied = 0;
  std::uint64_t capacity = 0;
  std::uint64_t dependent = 0;
  std::uint32_t* const indegree =
      k == 0 ? merged_indegree().data() : p.indegree.data();
  std::uint32_t* const parent = p.forest.data();
  if constexpr (kDegrees) std::fill(indegree, indegree + n, 0u);
  if constexpr (kComponents) std::iota(parent, parent + n, 0u);
  for (NodeId u = lo; u < hi; ++u) {
    if (!views.live(u)) continue;
    ++live;
    if constexpr (kDegrees) {
      const std::size_t d = views.degree(u);
      const std::size_t cap = views.capacity(u);
      occupied += d;
      capacity += cap;
      max_capacity = std::max(max_capacity, cap);
      if (p.outdegree_hist.size() < max_capacity + 1) {
        p.outdegree_hist.resize(max_capacity + 1, 0);
      }
      ++p.outdegree_hist[std::min(d, max_capacity)];
    }
    views.for_each_entry(u, [&](NodeId id, [[maybe_unused]] bool dep) {
      if constexpr (kDegrees) {
        ++indegree[id];
        if (dep) ++dependent;
      }
      if constexpr (kComponents) {
        if (id < n && views.live(id)) {
          link(parent, static_cast<std::uint32_t>(u),
               static_cast<std::uint32_t>(id));
        }
      }
    });
  }
  p.max_capacity = max_capacity;
  p.live = live;
  p.occupied = occupied;
  p.capacity = capacity;
  p.dependent = dependent;
}

template <class Views>
FlatClusterProbe ProbeSlices::merge(const Views& views) {
  FlatClusterProbe probe;
  for (const Partial& p : partials_) probe.live_nodes += p.live;
  if (degrees_) {
    std::size_t max_capacity = 0;
    std::size_t hist_size = 0;
    std::uint64_t capacity = 0;
    for (const Partial& p : partials_) {
      max_capacity = std::max(max_capacity, p.max_capacity);
      hist_size = std::max(hist_size, p.outdegree_hist.size());
      probe.occupied_slots += p.occupied;
      probe.dependent_entries += p.dependent;
      capacity += p.capacity;
    }
    probe.outdegree_hist.assign(hist_size, 0);
    for (const Partial& p : partials_) {
      for (std::size_t d = 0; d < p.outdegree_hist.size(); ++d) {
        probe.outdegree_hist[d] += p.outdegree_hist[d];
      }
    }
    probe.indegree_hist.assign(2 * max_capacity + 1, 0);
    std::uint32_t* const indegree = merged_indegree().data();
    Summary out;
    Summary in;
    for (NodeId u = 0; u < n_; ++u) {
      if (!views.live(u)) {
        indegree[u] = UINT32_MAX;
        continue;
      }
      std::uint32_t total = indegree[u];
      for (std::size_t k = 1; k < partials_.size(); ++k) {
        total += partials_[k].indegree[u];
      }
      indegree[u] = total;
      ++probe.indegree_hist[std::min<std::size_t>(total, 2 * max_capacity)];
      out.add(static_cast<std::uint32_t>(views.degree(u)));
      in.add(total);
    }
    const double out_mean = out.mean();
    const double in_mean = in.mean();
    for (NodeId u = 0; u < n_; ++u) {
      if (!views.live(u)) continue;
      out.add_square(static_cast<std::uint32_t>(views.degree(u)), out_mean);
      in.add_square(indegree[u], in_mean);
    }
    probe.outdegree = out.finish();
    probe.indegree = in.finish();
    probe.empty_slot_fraction =
        capacity == 0 ? 0.0
                      : 1.0 - static_cast<double>(probe.occupied_slots) /
                                  static_cast<double>(capacity);
  }
  if (components_) probe.largest_component = largest_component(views);
  return probe;
}

template <class Views>
std::uint64_t ProbeSlices::largest_component(const Views& views) {
  std::uint32_t* const root = partials_[0].forest.data();
  for (std::size_t k = 1; k < partials_.size(); ++k) {
    // Slice k's forest partitions the ids exactly as its edges (x,
    // parent[x]) do, so linking those edges joins the two partitions.
    const std::uint32_t* const forest = partials_[k].forest.data();
    for (std::uint32_t x = 0; x < n_; ++x) {
      if (forest[x] != x) link(root, x, forest[x]);
    }
  }
  std::vector<std::uint32_t>& counts =
      counts_in_partial_ ? partials_[1].indegree : counts_;
  std::fill(counts.begin(), counts.end(), 0u);
  std::uint32_t largest = 0;
  for (NodeId u = 0; u < n_; ++u) {
    if (!views.live(u)) continue;
    const std::uint32_t r = find(root, static_cast<std::uint32_t>(u));
    largest = std::max(largest, ++counts[r]);
  }
  return largest;
}

}  // namespace gossip::obs
