// TheoryOracle: live comparison of an empirical run against the paper's
// predictions, at each quiescent phase-C probe.
//
// Four checks, each normalized into a DriftMonitor score (<= 1 means "in
// tolerance"; see drift_monitor.hpp for the WARN/VIOLATION hysteresis):
//
//  degree      TVD and χ² of the empirical out/indegree distributions vs
//              the §6.2 degree-MC stationary marginals at the configured ℓ.
//              Thresholds are sample-size aware: the TVD limit is a model
//              bias allowance plus a sqrt(bins/samples) finite-sample term,
//              the χ² limit is dof + a noise band of sqrt(2·dof) plus a
//              per-sample bias allowance (mean-field bias grows linearly in
//              the sample count; sampling noise does not).
//  rates       windowed duplication rate vs the Lemma 6.7 band [ℓ, ℓ+δ]
//              and deletion rate vs the MC's deletion probability
//              (Lemma 6.6), both measured since the first post-warmup
//              probe — the same windowing the InvariantWatchdog uses, but
//              against the *predicted* ℓ rather than the measured loss, so
//              a mis-parameterized run (simulating ℓ'≠ℓ) is caught.
//  uniformity  streaming §7.3 estimator: per-id view-entry occurrences
//              accumulate across probes (ids live at every probe since the
//              oracle started), and the largest studentized deviation from
//              the mean occupancy is compared against the Gaussian
//              max-of-m envelope sqrt(2 ln m) with slack (successive
//              probes are correlated — entries persist across samples — so
//              the envelope is deliberately generous).
//  α̂           empirical spatial independence 1 − dependent/occupied vs
//              the Lemma 7.9 lower bound 1 − 2(ℓ+δ).
//
// The oracle is an observation passenger like the rest of obs/: it draws
// no RNG, mutates no protocol state, and leaves fingerprints bit-identical
// (pinned in tests/test_oracle.cpp). On a DriftMonitor escalation to
// VIOLATION it can dump an armed FlightRecorder for post-mortem debugging.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "obs/oracle/drift_monitor.hpp"
#include "obs/oracle/flight_recorder.hpp"
#include "obs/oracle/prediction.hpp"
#include "obs/registry.hpp"
#include "obs/timeseries.hpp"

namespace gossip::obs {

struct OracleConfig {
  // Rounds before the statistical checks engage. The degree distribution
  // of a dL-seeded overlay converges slowly (the mean climbs from dL for
  // hundreds of rounds), so this is deliberately longer than the
  // watchdog's structural warmup.
  std::uint64_t warmup_rounds = 400;
  // Minimum messages in the post-warmup window before rate checks apply.
  std::uint64_t min_sent_for_rates = 20'000;

  // TVD limit = tvd_bias + tvd_noise_factor * sqrt(bins / samples).
  // tvd_bias absorbs the mean-field model bias (the §6.2 chain is an
  // n → ∞ approximation); the second term is ~2x the expected
  // finite-sample TVD of a multinomial with `bins` support cells.
  double tvd_bias = 0.04;
  double tvd_noise_factor = 0.8;
  // χ² limit = dof + chi2_noise_sd * sqrt(2·dof) + chi2_bias_per_sample
  // * samples (model bias scales linearly with sample count).
  double chi2_noise_sd = 4.0;
  double chi2_bias_per_sample = 0.01;

  // Absolute tolerance around the rate predictions.
  double rate_tolerance = 0.02;
  // α̂ may fall this far below the Lemma 7.9 bound before scoring > 1.
  double alpha_tolerance = 0.02;

  // Uniformity limit = uniformity_slack * sqrt(2 ln m) over m tracked ids.
  double uniformity_slack = 1.75;
  std::uint64_t min_probes_for_uniformity = 5;
};

// Raw statistics of the most recent probe (before score normalization) —
// what bench_report --drift records next to the gate thresholds.
struct OracleSnapshot {
  std::uint64_t round = 0;
  bool degree_checked = false;
  double tvd_out = 0.0;
  double tvd_in = 0.0;
  double tvd_out_limit = 0.0;
  double tvd_in_limit = 0.0;
  double chi2_out = 0.0;
  double chi2_in = 0.0;
  double chi2_out_limit = 0.0;
  double chi2_in_limit = 0.0;
  bool rates_checked = false;
  double duplication_rate = 0.0;
  double deletion_rate = 0.0;
  std::uint64_t window_sent = 0;
  bool uniformity_checked = false;
  double uniformity_z = 0.0;
  double uniformity_limit = 0.0;
  std::uint64_t uniformity_ids = 0;
  bool alpha_checked = false;
  double alpha_hat = 1.0;
};

// In the per-id occurrence vector filled by the probes, dead ids carry
// this sentinel instead of a count.
inline constexpr std::uint32_t kDeadNodeOccurrence = UINT32_MAX;

class TheoryOracle {
 public:
  explicit TheoryOracle(TheoryPrediction prediction, OracleConfig config = {},
                        DriftMonitorConfig monitor_config = {});

  [[nodiscard]] const TheoryPrediction& prediction() const {
    return prediction_;
  }
  [[nodiscard]] const OracleConfig& config() const { return config_; }
  [[nodiscard]] DriftMonitor& monitor() { return monitor_; }
  [[nodiscard]] const DriftMonitor& monitor() const { return monitor_; }

  // One quiescent probe. `occurrences` is the per-id occurrence vector the
  // extended probe fills (kDeadNodeOccurrence for dead ids); pass an empty
  // span to skip the uniformity check. Draws no RNG, mutates nothing
  // outside the oracle.
  void observe(std::uint64_t round, const FlatClusterProbe& probe,
               std::span<const std::uint32_t> occurrences,
               const CumulativeCounters& counters);

  // Swaps the live prediction (an online retune installed new dL/s or a
  // new estimated ℓ). The windowed-rate baseline and the streaming
  // uniformity census accumulated statistics against the *old* stationary
  // point, so both restart — exactly the window-close reset — while the
  // DriftMonitor history and violation counts are preserved. Callers
  // should pair this with declare_fault_window over the transition so the
  // excursion between the two stationary points never escalates.
  void update_prediction(TheoryPrediction prediction);

  // Declares a scripted fault window [begin, end): probes landing in
  // [begin, end + grace_rounds) run in the DriftMonitor's *expected* mode
  // (drift accounted, never escalated — see drift_monitor.hpp), and when
  // the suppression window closes the oracle restarts its windowed-rate
  // baseline and streaming-uniformity accumulation so statistics poisoned
  // by the fault cannot false-trip the post-heal run. Undeclared faults
  // keep tripping VIOLATION as before. Call before run_rounds.
  void declare_fault_window(std::uint64_t begin, std::uint64_t end,
                            std::uint64_t grace_rounds = 0);
  // True when `round` falls inside any declared window (plus grace).
  [[nodiscard]] bool round_expected(std::uint64_t round) const;

  [[nodiscard]] std::uint64_t probes() const { return probes_; }
  [[nodiscard]] const OracleSnapshot& last() const { return last_; }

  // Optional: mirror the per-probe drift scores into registry gauges
  // ("drift_degree_out", ..., "drift_violations") written on `shard`.
  void bind_registry(MetricsRegistry* registry, std::size_t shard);

  // Arm a post-mortem dump: on the first DriftMonitor transition into
  // VIOLATION, `recorder` is dumped to `path` (once per run).
  void arm_flight_dump(FlightRecorder* recorder, std::string path);
  [[nodiscard]] bool flight_dumped() const { return flight_dumped_; }

  [[nodiscard]] std::string report() const;
  // {"prediction":{...},"last":{...},"monitor":{...}}
  void write_json(std::ostream& out) const;

 private:
  void check_degree(const FlatClusterProbe& probe);
  void check_rates(std::uint64_t round, const CumulativeCounters& counters);
  void check_uniformity(std::span<const std::uint32_t> occurrences);
  void check_alpha(const FlatClusterProbe& probe);

  TheoryPrediction prediction_;
  OracleConfig config_;
  DriftMonitor monitor_;
  OracleSnapshot last_{};
  std::uint64_t probes_ = 0;

  // Rate window (post-warmup baseline, watchdog-style).
  CumulativeCounters rate_baseline_{};
  bool have_rate_baseline_ = false;

  // Declared fault windows (suppression spans [begin, end + grace)).
  struct FaultWindow {
    std::uint64_t begin = 0;
    std::uint64_t end_with_grace = 0;
  };
  std::vector<FaultWindow> fault_windows_;
  bool last_probe_expected_ = false;

  // Streaming uniformity state.
  std::vector<std::uint64_t> occurrence_sum_;
  std::vector<std::uint8_t> always_live_;
  std::uint64_t uniformity_probes_ = 0;

  // Registry mirror.
  MetricsRegistry* registry_ = nullptr;
  std::size_t registry_shard_ = 0;
  GaugeId score_gauges_[static_cast<std::size_t>(DriftCheck::kCheckCount)];
  GaugeId violations_gauge_{};

  // Post-mortem dump.
  FlightRecorder* flight_recorder_ = nullptr;
  std::string flight_dump_path_;
  bool flight_dumped_ = false;
};

}  // namespace gossip::obs
