// RunArchive: one run's post-mortem artifacts, loaded back into memory.
//
// A chaos (or simulate) run leaves up to three artifacts behind:
//
//   *.sffr    the flight recorder's per-shard event rings (FlightTrace)
//   *.jsonl   the sfgossip.snapshot/v1 delta-encoded metric stream
//   *.json    the `sfgossip chaos --json` report (recovery episodes,
//             drift-monitor transitions, oracle prediction)
//
// The readers here reverse each writer exactly: SnapshotSurface re-applies
// the JSONL deltas onto the first full record to rebuild a time-indexed
// metric surface (cumulative counter values, gauge values, and histogram
// quantiles per snapshot round), and ChaosLog pulls the episode list and
// the monitor's VIOLATION transitions out of the report JSON. RunArchive
// bundles all three for the CausalIndex / RootCauseAttributor downstream.
// Everything is read-only and deterministic: iteration order is source
// order, never a hash map walk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/forensics/json.hpp"
#include "obs/oracle/flight_recorder.hpp"

namespace gossip::obs::forensics {

struct SurfaceHistogram {
  double total = 0.0;
  double delta = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

// The snapshot stream rebuilt as a dense (snapshot x metric) surface.
class SnapshotSurface {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  // Parses a sfgossip.snapshot/v1 JSONL stream (header line + snapshot
  // records). Returns false and leaves *this empty on malformed input;
  // see last_error().
  bool load(std::istream& in);
  bool load_file(const std::string& path);
  [[nodiscard]] const std::string& last_error() const { return last_error_; }

  [[nodiscard]] std::uint64_t snapshot_stride() const { return stride_; }
  [[nodiscard]] std::size_t size() const { return rounds_.size(); }
  [[nodiscard]] bool empty() const { return rounds_.empty(); }
  [[nodiscard]] std::uint64_t round_at(std::size_t i) const {
    return rounds_[i];
  }
  [[nodiscard]] std::uint64_t first_round() const {
    return rounds_.empty() ? 0 : rounds_.front();
  }
  [[nodiscard]] std::uint64_t last_round() const {
    return rounds_.empty() ? 0 : rounds_.back();
  }

  [[nodiscard]] const std::vector<std::string>& counter_names() const {
    return counter_names_;
  }
  [[nodiscard]] const std::vector<std::string>& gauge_names() const {
    return gauge_names_;
  }

  [[nodiscard]] bool has_counter(std::string_view name) const;

  // Cumulative counter / gauge value at snapshot `i` (carry-forward across
  // delta-encoded records that omitted the metric); 0 for unknown names.
  [[nodiscard]] double counter_at(std::size_t i, std::string_view name) const;
  [[nodiscard]] double gauge_at(std::size_t i, std::string_view name) const;
  // nullptr for unknown names.
  [[nodiscard]] const SurfaceHistogram* histogram_at(
      std::size_t i, std::string_view name) const;

  // Index of the last snapshot with round <= `round`; npos when the stream
  // starts after it.
  [[nodiscard]] std::size_t index_at_round(std::uint64_t round) const;
  // Index of the first snapshot with round >= `round`; npos when the
  // stream ends before it.
  [[nodiscard]] std::size_t index_from_round(std::uint64_t round) const;

  // Counter increase between the snapshots bracketing [begin, end]: value
  // at the last snapshot <= end minus value at the last snapshot <= begin
  // (0 when the window misses the stream).
  [[nodiscard]] double counter_window_delta(std::string_view name,
                                            std::uint64_t begin,
                                            std::uint64_t end) const;
  // Min / max gauge value over snapshots with round in [begin, end]
  // (fallback when the window misses the stream).
  [[nodiscard]] double gauge_window_min(std::string_view name,
                                        std::uint64_t begin,
                                        std::uint64_t end,
                                        double fallback = 0.0) const;
  [[nodiscard]] double gauge_window_max(std::string_view name,
                                        std::uint64_t begin,
                                        std::uint64_t end,
                                        double fallback = 0.0) const;

 private:
  bool fail(const std::string& message);
  [[nodiscard]] std::size_t counter_index(std::string_view name) const;
  [[nodiscard]] std::size_t gauge_index(std::string_view name) const;
  [[nodiscard]] std::size_t histogram_index(std::string_view name) const;

  std::uint64_t stride_ = 1;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> histogram_names_;
  std::vector<std::uint64_t> rounds_;  // per snapshot, ascending
  std::vector<std::uint64_t> seqs_;
  // Row-major surfaces: snapshot i x metric j.
  std::vector<std::vector<double>> counter_rows_;
  std::vector<std::vector<double>> gauge_rows_;
  std::vector<std::vector<SurfaceHistogram>> histogram_rows_;
  std::string last_error_;
};

// One recovery episode from the chaos report.
struct EpisodeRecord {
  std::string label;
  bool declared = false;
  std::uint64_t begin = 0;
  std::uint64_t heal = 0;
  bool degraded = false;
  std::vector<std::string> lanes;
  bool recovered = false;
  std::uint64_t recovered_round = 0;
  std::uint64_t recovery_rounds = 0;
};

// One DriftMonitor escalation to VIOLATION.
struct OracleViolationRecord {
  std::uint64_t round = 0;
  std::string check;  // drift_check_name: "degree_out", ...
  std::string from;   // prior state
  double score = 0.0;
};

// One InvariantWatchdog log entry (optional "watchdog" report section).
struct WatchdogTripRecord {
  std::string kind;
  std::uint64_t round = 0;
  std::int64_t node = -1;
};

// The `sfgossip chaos --json` report, reduced to what attribution needs.
class ChaosLog {
 public:
  // Accepts the chaos top-level shape ({"recovery": ..., "oracle": ...})
  // or a bare RecoveryTracker JSON ({"episodes": [...]}).
  bool load(std::istream& in);
  bool load_file(const std::string& path);
  [[nodiscard]] const std::string& last_error() const { return last_error_; }

  [[nodiscard]] const std::string& scenario() const { return scenario_; }
  [[nodiscard]] const std::vector<EpisodeRecord>& episodes() const {
    return episodes_;
  }
  [[nodiscard]] std::size_t unrecovered() const { return unrecovered_; }
  [[nodiscard]] double baseline_mean_degree() const { return baseline_mean_; }

  [[nodiscard]] bool has_oracle() const { return has_oracle_; }
  // The oracle's configured loss rate (the declared baseline the drift
  // checks judge against); 0 without an oracle section.
  [[nodiscard]] double predicted_loss() const { return predicted_loss_; }
  [[nodiscard]] const std::vector<OracleViolationRecord>& violations() const {
    return violations_;
  }
  [[nodiscard]] const std::vector<WatchdogTripRecord>& watchdog_trips() const {
    return watchdog_trips_;
  }

 private:
  bool fail(const std::string& message);
  bool load_value(const JsonValue& root);

  std::string scenario_;
  std::vector<EpisodeRecord> episodes_;
  std::size_t unrecovered_ = 0;
  double baseline_mean_ = 0.0;
  bool has_oracle_ = false;
  double predicted_loss_ = 0.0;
  std::vector<OracleViolationRecord> violations_;
  std::vector<WatchdogTripRecord> watchdog_trips_;
  std::string last_error_;
};

// The unified archive: any subset of the three artifacts may be present.
class RunArchive {
 public:
  [[nodiscard]] bool has_trace() const { return has_trace_; }
  [[nodiscard]] bool has_snapshots() const { return has_snapshots_; }
  [[nodiscard]] bool has_chaos() const { return has_chaos_; }

  [[nodiscard]] const FlightTrace& trace() const { return trace_; }
  [[nodiscard]] const SnapshotSurface& snapshots() const { return surface_; }
  [[nodiscard]] const ChaosLog& chaos() const { return chaos_; }

  // Each loader returns false and sets *error (when non-null) on failure;
  // previously loaded artifacts are unaffected.
  bool load_trace(std::istream& in, std::string* error);
  bool load_trace_file(const std::string& path, std::string* error);
  bool load_snapshots(std::istream& in, std::string* error);
  bool load_snapshots_file(const std::string& path, std::string* error);
  bool load_chaos(std::istream& in, std::string* error);
  bool load_chaos_file(const std::string& path, std::string* error);

 private:
  FlightTrace trace_;
  SnapshotSurface surface_;
  ChaosLog chaos_;
  bool has_trace_ = false;
  bool has_snapshots_ = false;
  bool has_chaos_ = false;
};

}  // namespace gossip::obs::forensics
