// Streaming registry snapshots: the live telemetry plane.
//
// A SnapshotStreamer borrows a MetricsRegistry and, when the owning driver
// reaches its quiescent-probe barrier, captures a full merged snapshot of
// every counter, gauge, and histogram plus the delta since the previous
// snapshot. The capture draws zero RNG and reads only registry state, so
// attaching a streamer never perturbs the simulation: the snapshot
// sequence — like the cluster fingerprint — is bit-identical for a fixed
// (seed, shard_count) at any thread count.
//
// Snapshots fan out to pluggable sinks:
//  - JsonlSnapshotSink: one JSON object per line; the first line is a
//    schema header, the first snapshot is full, and subsequent records are
//    delta-encoded (only metrics that changed since the previous record).
//  - PrometheusSnapshotSink: rewrites a text-exposition file per snapshot
//    (node_exporter textfile-collector style) with HELP/TYPE lines,
//    mangled metric names, cumulative le= buckets, and p50/p90/p99 gauges.
//  - CallbackSnapshotSink: in-process consumer (the `sfgossip top`
//    dashboard tails the streamer through one of these).
//
// External feeds that live outside the registry (e.g. a transport's drop
// counter) register through add_gauge_probe / add_counter_probe: the
// streamer registers a real registry metric for them and refreshes it from
// the closure immediately before each capture, so probes appear in
// snapshots, dumps, and Prometheus expositions like any native metric.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/export/quantiles.hpp"
#include "obs/registry.hpp"

namespace gossip::obs {

inline constexpr std::string_view kSnapshotSchemaName = "sfgossip.snapshot";
inline constexpr int kSnapshotSchemaVersion = 1;

struct ExportConfig {
  // Snapshot cadence in rounds. The driver only calls the streamer at its
  // own observation cadence (observe_stride); rounds that are not a
  // multiple of snapshot_stride are skipped on top of that. 0 is clamped
  // to 1 (snapshot at every probe).
  std::uint64_t snapshot_stride = 1;
  // Estimate p50/p90/p99 per histogram at capture time.
  bool quantiles = true;
};

struct SnapshotCounter {
  std::string_view name;
  std::uint64_t value = 0;  // merged cumulative value
  std::uint64_t delta = 0;  // change since the previous snapshot
};

struct SnapshotGauge {
  std::string_view name;
  double value = 0.0;
  bool changed = false;  // differs from the previous snapshot
};

struct SnapshotHistogram {
  std::string_view name;
  const std::vector<double>* upper_bounds = nullptr;  // finite; +inf implied
  std::vector<std::uint64_t> counts;                  // merged, per bucket
  std::uint64_t total = 0;                            // sum of counts
  std::uint64_t delta_total = 0;  // observations since previous snapshot
  HistogramQuantiles quantiles;   // zeros when ExportConfig::quantiles off
};

// One capture. Always carries the complete metric surface; sinks that
// delta-encode (JSONL) use the per-entry delta/changed flags to decide
// what to emit, sinks that need absolute state (Prometheus) ignore them.
struct RegistrySnapshot {
  std::uint64_t sequence = 0;  // 0-based capture index
  std::uint64_t round = 0;     // simulation round at capture
  bool full = false;           // true for the first capture
  std::vector<SnapshotCounter> counters;
  std::vector<SnapshotGauge> gauges;
  std::vector<SnapshotHistogram> histograms;
};

class SnapshotSink {
 public:
  virtual ~SnapshotSink() = default;
  // Called once, immediately before the first snapshot is delivered (by
  // then every metric — including streamer probes — is registered).
  virtual void begin(const MetricsRegistry& registry,
                     const ExportConfig& config) {
    (void)registry;
    (void)config;
  }
  virtual void consume(const RegistrySnapshot& snapshot) = 0;
  // Called from SnapshotStreamer::finish() (and its destructor).
  virtual void finish() {}
};

// One JSON object per line. Line 1 is the schema header; snapshot records
// after the first carry only changed metrics.
class JsonlSnapshotSink final : public SnapshotSink {
 public:
  explicit JsonlSnapshotSink(std::ostream& out);
  explicit JsonlSnapshotSink(const std::string& path);
  ~JsonlSnapshotSink() override;

  // False if a path-constructed sink failed to open its file.
  [[nodiscard]] bool ok() const;

  void begin(const MetricsRegistry& registry,
             const ExportConfig& config) override;
  void consume(const RegistrySnapshot& snapshot) override;
  void finish() override;

 private:
  std::unique_ptr<std::ostream> owned_;
  std::ostream* out_ = nullptr;
};

// Rewrites `path` wholesale at every snapshot, so a scraper always sees a
// complete, consistent exposition.
class PrometheusSnapshotSink final : public SnapshotSink {
 public:
  explicit PrometheusSnapshotSink(std::string path,
                                  std::string prefix = "sfgossip");

  void consume(const RegistrySnapshot& snapshot) override;

  // Prometheus metric names admit [a-zA-Z_:][a-zA-Z0-9_:]*; every other
  // byte becomes '_' and a leading digit gains a '_' prefix.
  [[nodiscard]] static std::string mangle(std::string_view name);

  // Render one snapshot as a full text exposition (exposed for tests and
  // for callers that manage their own files).
  static void render(std::ostream& out, const RegistrySnapshot& snapshot,
                     std::string_view prefix);

 private:
  std::string path_;
  std::string prefix_;
};

// Hands each snapshot to an in-process callback.
class CallbackSnapshotSink final : public SnapshotSink {
 public:
  explicit CallbackSnapshotSink(
      std::function<void(const RegistrySnapshot&)> callback)
      : callback_(std::move(callback)) {}

  void consume(const RegistrySnapshot& snapshot) override {
    if (callback_) callback_(snapshot);
  }

 private:
  std::function<void(const RegistrySnapshot&)> callback_;
};

class SnapshotStreamer {
 public:
  explicit SnapshotStreamer(MetricsRegistry& registry, ExportConfig config = {});
  ~SnapshotStreamer();

  SnapshotStreamer(const SnapshotStreamer&) = delete;
  SnapshotStreamer& operator=(const SnapshotStreamer&) = delete;

  [[nodiscard]] const ExportConfig& config() const { return config_; }
  [[nodiscard]] MetricsRegistry& registry() { return registry_; }

  void add_sink(std::unique_ptr<SnapshotSink> sink);

  // Register an externally-fed metric. Registers a real registry gauge /
  // counter under `name`. The closure is evaluated once per capture,
  // immediately before the registry is read. Counter probes must return a
  // monotonically non-decreasing cumulative value; the streamer feeds the
  // registry the per-capture delta.
  void add_gauge_probe(std::string_view name, std::function<double()> read);
  void add_counter_probe(std::string_view name,
                         std::function<std::uint64_t()> read);

  // True when `round` is on the snapshot cadence.
  [[nodiscard]] bool due(std::uint64_t round) const {
    const std::uint64_t stride =
        config_.snapshot_stride == 0 ? 1 : config_.snapshot_stride;
    return round % stride == 0;
  }

  // Capture a snapshot if `round` is due; returns whether one was taken.
  // Call on the quiescent-probe barrier, after every other observer has
  // updated the registry. Draws no RNG.
  bool observe(std::uint64_t round);

  // Unconditional capture (ignores the cadence). Used by final flushes.
  void capture(std::uint64_t round);

  // Flush sinks; idempotent, also invoked by the destructor.
  void finish();

  [[nodiscard]] std::uint64_t snapshots_taken() const { return sequence_; }
  // Most recent capture; empty-sequence snapshot before the first capture.
  [[nodiscard]] const RegistrySnapshot& last() const { return last_; }

 private:
  void refresh_probes();

  MetricsRegistry& registry_;
  ExportConfig config_;
  std::vector<std::unique_ptr<SnapshotSink>> sinks_;

  struct GaugeProbe {
    GaugeId id;
    std::function<double()> read;
  };
  struct CounterProbe {
    CounterId id;
    std::function<std::uint64_t()> read;
    std::uint64_t last = 0;
  };
  std::vector<GaugeProbe> gauge_probes_;
  std::vector<CounterProbe> counter_probes_;

  std::vector<std::uint64_t> prev_counters_;
  std::vector<double> prev_gauges_;
  std::vector<std::vector<std::uint64_t>> prev_hist_counts_;

  RegistrySnapshot last_;
  std::uint64_t sequence_ = 0;
  bool begun_ = false;
  bool finished_ = false;
};

}  // namespace gossip::obs
