// The one cluster probe behind every probe entry point: obs::probe_cluster
// over the flat engine, sim::probe_cluster over the object engine, the
// sharded driver's parallel observe phase, and the recovery tracker's
// connectivity lane.
//
// A probe is cut into *slices* over contiguous node ranges. A slice walks
// the rows of its own range into private partials: the outdegree histogram,
// occupied / capacity / dependent / live counts and a per-id in-degree
// array. With the component census on, it also writes each live row's first
// two edges into its range of one shared edge list. One *merge* then folds
// the partials in slice order: integer sums, the two degree summaries
// computed in node order, and the component census over the edge list (see
// largest_component). Neither an integer sum nor a component partition
// depends on where the ranges are cut, so the merged probe is bit-identical
// for any slicing. The serial entry points are one slice over [0, n)
// followed by the same merge.
//
// Slice 0 counts in-degrees straight into the merged 32-bit array; every
// other slice counts into an 8-bit partial and lists an id each time its
// count wraps, and the merge adds 256 per listed wrap. A slice's count of
// one id is about its share of the mean in-degree, so wraps are rare, and
// the partials take a quarter of the memory and cache of 32-bit ones.
//
// The row walk has no per-slot branch. S&F rows are about half empty at
// random positions, so a test per slot mispredicts about every other slot.
// A slice instead compacts each row's in-cluster ids with
//   ids[k] = bits & kIdMask;  k += ids[k] < n;
// An empty slot masks to 0x7FFFFFFF >= n, so the one compare drops both
// empty slots and ids outside the cluster. The in-degree increments then
// run over ids[0, k), and the dependence tags are a masked sum.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/node_id.hpp"
#include "core/flat_send_forget.hpp"
#include "core/packed_view.hpp"
#include "obs/timeseries.hpp"

namespace gossip::obs {

// The flat engine as a probe sees it: every live row holds `s` slots.
//
// A `Views` adapter exposes size(), live(u), degree(u), capacity(u),
// row(u): the packed row of capacity(u) slots, and min_capacity(): the flat
// engine's fixed view size, which sizes the histograms up front, or 0 for
// the object engine, whose histograms grow to its largest live view.
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
  [[nodiscard]] const PackedViewEntry* row(NodeId u) const {
    return cluster.slots(u);
  }
};

// Reusable probe scratch for a fixed number of slices. Distinct slices
// write disjoint scratch, so they may run concurrently over a quiescent
// cluster; prepare and merge are single-threaded.
class ProbeSlices {
 public:
  // Sizes the scratch for `slices` node ranges over `n` nodes, keeping
  // allocations across calls of the same shape. Every probe takes the
  // degree census (every FlatClusterProbe field but largest_component); its
  // merged per-id in-degree array is `*occurrences` when that is non-null
  // (the oracle's occurrence census) and internal scratch otherwise.
  // `components` adds the weak-component census (largest_component).
  void prepare(std::size_t n, std::size_t slices, bool components,
               std::vector<std::uint32_t>* occurrences = nullptr) {
    n_ = n;
    components_ = components;
    partials_.resize(slices);
    const auto keep = [](auto& v, std::size_t size) {
      if (size > 0) {
        v.resize(size);
      } else {
        std::remove_reference_t<decltype(v)>().swap(v);
      }
    };
    occurrences_ = occurrences;
    keep(own_indegree_, occurrences == nullptr ? n : 0);
    merged_indegree().resize(n);
    for (std::size_t k = 0; k < slices; ++k) {
      keep(partials_[k].indegree, k != 0 ? n : 0);
    }
    keep(edges_, components ? 2 * n : 0);
    keep(forest_, components ? n : 0);
  }

  // Walks the rows of [lo, hi) into slice k's partials.
  template <class Views>
  void slice(const Views& views, std::size_t k, NodeId lo, NodeId hi) {
    if (components_) {
      slice_impl<true>(views, k, lo, hi);
    } else {
      slice_impl<false>(views, k, lo, hi);
    }
  }

  // Folds the partials in slice order; call after every slice finished.
  template <class Views>
  [[nodiscard]] FlatClusterProbe merge(const Views& views);

  // The serial probe: prepare for one slice, walk [0, n), merge.
  template <class Views>
  [[nodiscard]] FlatClusterProbe run(
      const Views& views, bool components,
      std::vector<std::uint32_t>* occurrences = nullptr) {
    prepare(views.size(), 1, components, occurrences);
    slice(views, 0, 0, static_cast<NodeId>(views.size()));
    return merge(views);
  }

  // The last merge's per-id in-degree census: occurrence counts across
  // live views for live ids, UINT32_MAX (kDeadNodeOccurrence) for dead
  // ones.
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
    // Per-id in-degree from this slice's rows modulo 256, and each id
    // once per wrap of its count; slice 0 counts straight into the merged
    // array instead.
    std::vector<std::uint8_t> indegree;
    std::vector<std::uint32_t> wrapped;
    // One row's compacted in-cluster ids.
    std::vector<std::uint32_t> ids;
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

  // Ids at or above this bound are not in the cluster. It never exceeds
  // kIdMask, so an empty slot (masked to kIdMask) is out of range too.
  [[nodiscard]] std::uint32_t id_limit() const {
    return static_cast<std::uint32_t>(
        std::min<std::size_t>(n_, PackedViewEntry::kIdMask));
  }

  std::uint32_t find(std::uint32_t x) {
    std::uint32_t* const parent = forest_.data();
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];  // path halving
      x = parent[x];
    }
    return x;
  }
  // Links by index (the smaller root wins), so no size array is needed.
  // Returns whether the two ids were in different trees.
  bool link(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (a < b) {
      forest_[b] = a;
    } else {
      forest_[a] = b;
    }
    return true;
  }

  [[nodiscard]] std::vector<std::uint32_t>& merged_indegree() {
    return occurrences_ != nullptr ? *occurrences_ : own_indegree_;
  }
  template <bool kComponents, class Views>
  void slice_impl(const Views& views, std::size_t k, NodeId lo, NodeId hi);
  template <class Views>
  [[nodiscard]] std::uint64_t largest_component(const Views& views,
                                                std::uint64_t live);

  std::size_t n_ = 0;
  bool components_ = false;
  std::vector<Partial> partials_;
  std::vector<std::uint32_t>* occurrences_ = nullptr;  // borrowed
  std::vector<std::uint32_t> own_indegree_;
  // Pass 1 of the component census: row u's first two edges to live ids
  // at [2u, 2u + 2), u itself standing in for a missing one. Once pass 1
  // has consumed it, the census keeps its per-tree counts in [n, 2n) and
  // the nodes outside the giant tree in [0, n).
  std::vector<std::uint32_t> edges_;
  // Union-find parents over every id.
  std::vector<std::uint32_t> forest_;
};

template <bool kComponents, class Views>
void ProbeSlices::slice_impl(const Views& views, std::size_t k, NodeId lo,
                             NodeId hi) {
  const std::uint32_t limit = id_limit();
  Partial& p = partials_[k];
  std::size_t max_capacity = views.min_capacity();
  p.outdegree_hist.assign(max_capacity == 0 ? 0 : max_capacity + 1, 0);
  if (p.ids.size() < max_capacity) p.ids.resize(max_capacity);
  std::uint64_t live = 0;
  std::uint64_t occupied = 0;
  std::uint64_t capacity = 0;
  std::uint64_t tagged = 0;
  std::uint32_t* const merged = merged_indegree().data();
  std::uint8_t* const partial = p.indegree.data();
  if (k == 0) {
    std::fill(merged, merged + n_, 0u);
  } else {
    std::fill(partial, partial + n_, std::uint8_t{0});
  }
  p.wrapped.clear();
  std::uint32_t* const edges = edges_.data();
  for (NodeId u = lo; u < hi; ++u) {
    const std::size_t e = 2 * static_cast<std::size_t>(u);
    if (!views.live(u)) {
      if constexpr (kComponents) edges[e] = edges[e + 1] = u;
      continue;
    }
    ++live;
    const std::size_t d = views.degree(u);
    const std::size_t cap = views.capacity(u);
    occupied += d;
    capacity += cap;
    if (cap > max_capacity) {
      max_capacity = cap;
      p.outdegree_hist.resize(max_capacity + 1, 0);
      p.ids.resize(max_capacity);
    }
    ++p.outdegree_hist[std::min(d, max_capacity)];
    const PackedViewEntry* const row = views.row(u);
    std::uint32_t* const ids = p.ids.data();
    std::size_t m = 0;
    for (std::size_t i = 0; i < cap; ++i) {
      const std::uint32_t bits = row[i].bits();
      const std::uint32_t id = bits & PackedViewEntry::kIdMask;
      ids[m] = id;
      m += id < limit ? 1 : 0;
      tagged += bits >> 31;
    }
    // Every empty slot carries the tag bit; the rest are dependent entries.
    tagged -= cap - d;
    if (k == 0) {
      for (std::size_t j = 0; j < m; ++j) ++merged[ids[j]];
    } else {
      for (std::size_t j = 0; j < m; ++j) {
        if (++partial[ids[j]] == 0) p.wrapped.push_back(ids[j]);
      }
    }
    if constexpr (kComponents) {
      const auto edge = [&](std::size_t j) {
        return j < m && views.live(ids[j]) ? ids[j] : u;
      };
      edges[e] = edge(0);
      edges[e + 1] = edge(1);
    }
  }
  p.max_capacity = max_capacity;
  p.live = live;
  p.occupied = occupied;
  p.capacity = capacity;
  p.dependent = tagged;
}

template <class Views>
FlatClusterProbe ProbeSlices::merge(const Views& views) {
  FlatClusterProbe probe;
  for (const Partial& p : partials_) probe.live_nodes += p.live;
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
  for (std::size_t k = 1; k < partials_.size(); ++k) {
    for (const std::uint32_t id : partials_[k].wrapped) indegree[id] += 256;
  }
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
  if (components_) {
    probe.largest_component = largest_component(views, probe.live_nodes);
  }
  return probe;
}

// Exact weak-component census of the live overlay in two passes.
//
// Pass 1 unions the edge list (at most two edges per live row). If that
// forest spans every live node, so does the overlay. Otherwise let C be the
// largest pass-1 component and O the live nodes outside it. Pass 2 unions
// every edge out of O, and joins each v in O to C when in-degree(v) exceeds
// the occurrences of v in O's rows: then some row in C holds v. Every edge
// that can join two pass-1 components leaves O or enters it from C, so the
// partition is the one the union of every edge gives.
template <class Views>
std::uint64_t ProbeSlices::largest_component(const Views& views,
                                             std::uint64_t live) {
  const auto n = static_cast<std::uint32_t>(n_);
  std::iota(forest_.begin(), forest_.end(), 0u);
  std::uint64_t joined = 0;
  for (std::uint32_t u = 0; u < n; ++u) {
    const std::size_t e = 2 * static_cast<std::size_t>(u);
    joined += link(u, edges_[e]) ? 1 : 0;
    joined += link(u, edges_[e + 1]) ? 1 : 0;
  }
  // Only live nodes are ever linked, so live - joined is the number of
  // live components.
  if (live - joined <= 1) return live;

  std::uint32_t* const counts = edges_.data() + n;
  const auto largest_tree = [&] {
    std::fill(counts, counts + n, 0u);
    std::uint32_t size = 0;
    std::uint32_t root = 0;
    for (std::uint32_t u = 0; u < n; ++u) {
      if (!views.live(u)) continue;
      const std::uint32_t r = find(u);
      if (++counts[r] > size) {
        size = counts[r];
        root = r;
      }
    }
    return std::pair{size, root};
  };
  const std::uint32_t giant = largest_tree().second;

  // O: at most n - 1 nodes, so clear of the counts.
  std::uint32_t* const outside = edges_.data();
  std::size_t outside_count = 0;
  for (std::uint32_t u = 0; u < n; ++u) {
    if (views.live(u) && find(u) != giant) outside[outside_count++] = u;
  }
  const std::uint32_t limit = id_limit();
  std::fill(counts, counts + n, 0u);
  for (std::size_t i = 0; i < outside_count; ++i) {
    const std::uint32_t u = outside[i];
    const PackedViewEntry* const row = views.row(u);
    const std::size_t cap = views.capacity(u);
    for (std::size_t j = 0; j < cap; ++j) {
      const std::uint32_t id = row[j].bits() & PackedViewEntry::kIdMask;
      if (id >= limit) continue;
      ++counts[id];
      if (views.live(id)) link(u, id);
    }
  }
  const std::uint32_t* const indegree = merged_indegree().data();
  for (std::size_t i = 0; i < outside_count; ++i) {
    const std::uint32_t v = outside[i];
    if (indegree[v] > counts[v]) link(v, giant);
  }
  return largest_tree().first;
}

}  // namespace gossip::obs
