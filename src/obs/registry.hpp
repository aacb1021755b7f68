// Metrics registry: named counters, gauges, and fixed-bucket histograms
// with per-shard storage and a deterministic merge.
//
// Design constraints (see DESIGN.md "Observability"):
//  - The hot path is a single unsynchronized increment into a per-shard
//    slab: no atomics, no locks, no hashing. Each shard's slab starts on
//    its own cache line (alignas(64)) and counter/gauge/bucket arrays are
//    padded to a multiple of 8 slots so two shards never share a line.
//  - Registration happens single-threaded, before the worker threads
//    start. Registering is idempotent per name and returns a dense index.
//  - The merge is a fixed-order sum over shards (shard 0, 1, ...) of
//    integer counters, so a registry dump is bit-identical whenever the
//    per-shard contents are — preserving the ShardedDriver's
//    bit-identical-for-fixed-(seed, shard_count) contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace gossip::obs {

struct CounterId {
  std::uint32_t index = UINT32_MAX;
  [[nodiscard]] bool valid() const { return index != UINT32_MAX; }
};

struct GaugeId {
  std::uint32_t index = UINT32_MAX;
  [[nodiscard]] bool valid() const { return index != UINT32_MAX; }
};

struct HistogramId {
  std::uint32_t index = UINT32_MAX;
  [[nodiscard]] bool valid() const { return index != UINT32_MAX; }
};

class MetricsRegistry {
 public:
  explicit MetricsRegistry(std::size_t shard_count = 1);

  [[nodiscard]] std::size_t shard_count() const { return slabs_.size(); }

  // Register-or-look-up by name. Single-threaded only.
  CounterId counter(std::string_view name);
  GaugeId gauge(std::string_view name);
  // `upper_bounds` must be strictly increasing; an implicit +inf bucket is
  // appended. Re-registering an existing name ignores the bounds argument.
  HistogramId histogram(std::string_view name, std::vector<double> upper_bounds);

  [[nodiscard]] std::size_t counter_count() const { return counter_names_.size(); }
  [[nodiscard]] std::size_t gauge_count() const { return gauge_names_.size(); }
  [[nodiscard]] std::size_t histogram_count() const { return histograms_.size(); }

  // Name enumeration in registration order (the snapshot/export plane walks
  // the whole surface without knowing the names in advance). Indices are
  // the dense CounterId/GaugeId/HistogramId indices.
  [[nodiscard]] const std::string& counter_name(std::size_t i) const {
    return counter_names_[i];
  }
  [[nodiscard]] const std::string& gauge_name(std::size_t i) const {
    return gauge_names_[i];
  }
  [[nodiscard]] const std::string& histogram_name(std::size_t i) const {
    return histograms_[i].name;
  }
  [[nodiscard]] const std::vector<double>& histogram_upper_bounds(
      std::size_t i) const {
    return histograms_[i].upper_bounds;
  }

  // Hot-path mutation. `shard` must be < shard_count(); only one thread
  // may write a given shard at a time (the caller's sharding discipline).
  void add(CounterId id, std::size_t shard, std::uint64_t delta = 1) {
    slabs_[shard].counters[id.index] += delta;
  }
  void set(GaugeId id, std::size_t shard, double value) {
    slabs_[shard].gauges[id.index] = value;
  }
  void observe(HistogramId id, std::size_t shard, double value);
  // Bulk form: record `count` observations of `value` with one bucket
  // lookup — how the drivers fold a whole probe-time degree histogram into
  // the registry without n individual observe() calls.
  void observe_n(HistogramId id, std::size_t shard, double value,
                 std::uint64_t count);

  // Raw counter slab for one shard, indexed by CounterId::index. The
  // fastest hot path: fetch it once per phase and bump cells directly.
  [[nodiscard]] std::uint64_t* counters(std::size_t shard) {
    return slabs_[shard].counters.data();
  }
  [[nodiscard]] const std::uint64_t* counters(std::size_t shard) const {
    return slabs_[shard].counters.data();
  }

  // Merged (summed over shards, fixed shard order) values.
  [[nodiscard]] std::uint64_t counter_value(CounterId id) const;
  // Gauges merge by sum; the convention is that a gauge is written by one
  // designated shard (others stay 0).
  [[nodiscard]] double gauge_value(GaugeId id) const;
  [[nodiscard]] std::vector<std::uint64_t> histogram_counts(HistogramId id) const;

  // Zero every value in every shard; registrations are kept.
  void reset();
  void reset_histogram(HistogramId id);

  // Deterministic text dump in registration order: one line per metric.
  [[nodiscard]] std::string dump() const;
  void write_json(std::ostream& out) const;
  void write_csv(std::ostream& out) const;

 private:
  struct HistogramMeta {
    std::string name;
    std::vector<double> upper_bounds;  // finite bounds; +inf implied
    std::size_t offset = 0;            // into Slab::hist_buckets
    std::size_t buckets = 0;           // upper_bounds.size() + 1
  };

  // One slab per shard. The struct is cache-line aligned and the vectors
  // are sized in multiples of 8 uint64s so hot cells of adjacent shards
  // never share a cache line (vector payloads are separately allocated,
  // but padding also keeps the *tails* of two metrics apart).
  struct alignas(64) Slab {
    std::vector<std::uint64_t> counters;
    std::vector<double> gauges;
    std::vector<std::uint64_t> hist_buckets;
  };

  static std::size_t padded(std::size_t n) { return (n + 7) & ~std::size_t{7}; }
  void grow_slabs();

  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<HistogramMeta> histograms_;
  std::size_t hist_bucket_total_ = 0;
  std::vector<Slab> slabs_;
};

}  // namespace gossip::obs
