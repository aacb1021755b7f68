#include "obs/registry.hpp"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/export/quantiles.hpp"

namespace gossip::obs {

namespace {

// Minimal JSON string escaping; metric names are identifiers, but be safe.
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out;
}

template <typename Names>
std::uint32_t find_name(const Names& names, std::string_view name) {
  for (std::uint32_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  return UINT32_MAX;
}

}  // namespace

MetricsRegistry::MetricsRegistry(std::size_t shard_count)
    : slabs_(std::max<std::size_t>(1, shard_count)) {}

CounterId MetricsRegistry::counter(std::string_view name) {
  std::uint32_t i = find_name(counter_names_, name);
  if (i == UINT32_MAX) {
    i = static_cast<std::uint32_t>(counter_names_.size());
    counter_names_.emplace_back(name);
    grow_slabs();
  }
  return CounterId{i};
}

GaugeId MetricsRegistry::gauge(std::string_view name) {
  std::uint32_t i = find_name(gauge_names_, name);
  if (i == UINT32_MAX) {
    i = static_cast<std::uint32_t>(gauge_names_.size());
    gauge_names_.emplace_back(name);
    grow_slabs();
  }
  return GaugeId{i};
}

HistogramId MetricsRegistry::histogram(std::string_view name,
                                       std::vector<double> upper_bounds) {
  for (std::uint32_t i = 0; i < histograms_.size(); ++i) {
    if (histograms_[i].name == name) return HistogramId{i};
  }
  if (!std::is_sorted(upper_bounds.begin(), upper_bounds.end()) ||
      std::adjacent_find(upper_bounds.begin(), upper_bounds.end()) !=
          upper_bounds.end()) {
    throw std::invalid_argument(
        "histogram upper_bounds must be strictly increasing");
  }
  HistogramMeta meta;
  meta.name = std::string(name);
  meta.buckets = upper_bounds.size() + 1;
  meta.upper_bounds = std::move(upper_bounds);
  meta.offset = hist_bucket_total_;
  hist_bucket_total_ += padded(meta.buckets);
  const auto id = static_cast<std::uint32_t>(histograms_.size());
  histograms_.push_back(std::move(meta));
  grow_slabs();
  return HistogramId{id};
}

void MetricsRegistry::grow_slabs() {
  const std::size_t nc = padded(counter_names_.size());
  const std::size_t ng = padded(gauge_names_.size());
  for (Slab& slab : slabs_) {
    if (slab.counters.size() < nc) slab.counters.resize(nc, 0);
    if (slab.gauges.size() < ng) slab.gauges.resize(ng, 0.0);
    if (slab.hist_buckets.size() < hist_bucket_total_) {
      slab.hist_buckets.resize(hist_bucket_total_, 0);
    }
  }
}

void MetricsRegistry::observe(HistogramId id, std::size_t shard, double value) {
  const HistogramMeta& meta = histograms_[id.index];
  // Bounds are inclusive (le=, Prometheus-style): the first bucket whose
  // upper bound is >= value.
  const auto it = std::lower_bound(meta.upper_bounds.begin(),
                                   meta.upper_bounds.end(), value);
  const auto bucket =
      static_cast<std::size_t>(it - meta.upper_bounds.begin());
  ++slabs_[shard].hist_buckets[meta.offset + bucket];
}

void MetricsRegistry::observe_n(HistogramId id, std::size_t shard,
                                double value, std::uint64_t count) {
  const HistogramMeta& meta = histograms_[id.index];
  const auto it = std::lower_bound(meta.upper_bounds.begin(),
                                   meta.upper_bounds.end(), value);
  const auto bucket =
      static_cast<std::size_t>(it - meta.upper_bounds.begin());
  slabs_[shard].hist_buckets[meta.offset + bucket] += count;
}

std::uint64_t MetricsRegistry::counter_value(CounterId id) const {
  std::uint64_t sum = 0;
  for (const Slab& slab : slabs_) sum += slab.counters[id.index];
  return sum;
}

double MetricsRegistry::gauge_value(GaugeId id) const {
  double sum = 0.0;
  for (const Slab& slab : slabs_) sum += slab.gauges[id.index];
  return sum;
}

std::vector<std::uint64_t> MetricsRegistry::histogram_counts(
    HistogramId id) const {
  const HistogramMeta& meta = histograms_[id.index];
  std::vector<std::uint64_t> counts(meta.buckets, 0);
  for (const Slab& slab : slabs_) {
    for (std::size_t b = 0; b < meta.buckets; ++b) {
      counts[b] += slab.hist_buckets[meta.offset + b];
    }
  }
  return counts;
}

void MetricsRegistry::reset() {
  for (Slab& slab : slabs_) {
    std::fill(slab.counters.begin(), slab.counters.end(), 0);
    std::fill(slab.gauges.begin(), slab.gauges.end(), 0.0);
    std::fill(slab.hist_buckets.begin(), slab.hist_buckets.end(), 0);
  }
}

std::string MetricsRegistry::dump() const {
  std::ostringstream out;
  for (std::uint32_t i = 0; i < counter_names_.size(); ++i) {
    out << "counter " << counter_names_[i] << ' '
        << counter_value(CounterId{i}) << '\n';
  }
  for (std::uint32_t i = 0; i < gauge_names_.size(); ++i) {
    out << "gauge " << gauge_names_[i] << ' ' << gauge_value(GaugeId{i})
        << '\n';
  }
  for (std::uint32_t i = 0; i < histograms_.size(); ++i) {
    const HistogramMeta& meta = histograms_[i];
    const auto counts = histogram_counts(HistogramId{i});
    for (std::size_t b = 0; b < counts.size(); ++b) {
      out << "hist " << meta.name << ' ';
      if (b < meta.upper_bounds.size()) {
        out << "le=" << meta.upper_bounds[b];
      } else {
        out << "le=inf";
      }
      out << ' ' << counts[b] << '\n';
    }
  }
  return out.str();
}

void MetricsRegistry::write_json(std::ostream& out) const {
  out << "{\"counters\":{";
  for (std::uint32_t i = 0; i < counter_names_.size(); ++i) {
    if (i != 0) out << ',';
    out << '"' << json_escape(counter_names_[i])
        << "\":" << counter_value(CounterId{i});
  }
  out << "},\"gauges\":{";
  for (std::uint32_t i = 0; i < gauge_names_.size(); ++i) {
    if (i != 0) out << ',';
    out << '"' << json_escape(gauge_names_[i])
        << "\":" << gauge_value(GaugeId{i});
  }
  out << "},\"histograms\":{";
  for (std::uint32_t i = 0; i < histograms_.size(); ++i) {
    if (i != 0) out << ',';
    const HistogramMeta& meta = histograms_[i];
    out << '"' << json_escape(meta.name) << "\":{\"upper_bounds\":[";
    for (std::size_t b = 0; b < meta.upper_bounds.size(); ++b) {
      if (b != 0) out << ',';
      out << meta.upper_bounds[b];
    }
    out << "],\"counts\":[";
    const auto counts = histogram_counts(HistogramId{i});
    for (std::size_t b = 0; b < counts.size(); ++b) {
      if (b != 0) out << ',';
      out << counts[b];
    }
    const HistogramQuantiles q =
        estimate_quantiles(meta.upper_bounds, counts);
    out << "],\"p50\":" << q.p50 << ",\"p90\":" << q.p90
        << ",\"p99\":" << q.p99 << '}';
  }
  out << "}}";
}

void MetricsRegistry::write_csv(std::ostream& out) const {
  out << "kind,name,bucket,value\n";
  for (std::uint32_t i = 0; i < counter_names_.size(); ++i) {
    out << "counter," << counter_names_[i] << ",,"
        << counter_value(CounterId{i}) << '\n';
  }
  for (std::uint32_t i = 0; i < gauge_names_.size(); ++i) {
    out << "gauge," << gauge_names_[i] << ",," << gauge_value(GaugeId{i})
        << '\n';
  }
  for (std::uint32_t i = 0; i < histograms_.size(); ++i) {
    const HistogramMeta& meta = histograms_[i];
    const auto counts = histogram_counts(HistogramId{i});
    for (std::size_t b = 0; b < counts.size(); ++b) {
      out << "hist," << meta.name << ',';
      if (b < meta.upper_bounds.size()) {
        out << meta.upper_bounds[b];
      } else {
        out << "inf";
      }
      out << ',' << counts[b] << '\n';
    }
  }
}

}  // namespace gossip::obs
