// Drift-score state machine fed by the TheoryOracle.
//
// Every oracle check normalizes its deviation into a *drift score*: a
// score <= 1 means the empirical run is inside the check's tolerance, a
// score > 1 breaches the warn threshold, and a score >= violation_ratio
// is a violation candidate. The monitor keeps one state machine per check
// with hysteresis:
//
//   kOk -> kWarn        immediately on a score > 1;
//   kWarn -> kViolation after `violation_streak` consecutive probes with a
//                       candidate score (a single noisy probe never fires
//                       the alarm);
//   any -> kOk          after `clear_streak` consecutive probes back at
//                       score <= 1 (so a flapping statistic does not
//                       toggle WARN on and off every sample).
//
// Transitions into kViolation are counted, logged (bounded) and forwarded
// to an optional callback — the TheoryOracle uses it to trigger a
// FlightRecorder dump. Scores are also retained per probe so the whole
// drift trajectory can be dumped next to the time series.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace gossip::obs {

enum class DriftCheck : std::uint8_t {
  kDegreeOut = 0,   // TVD/χ² of the outdegree distribution vs §6.2
  kDegreeIn,        // same for indegree
  kDuplicationRate, // windowed dup rate vs the Lemma 6.7 band
  kDeletionRate,    // windowed del rate vs Lemma 6.6 (dup = ℓ + del)
  kUniformity,      // streaming §7.3 occurrence uniformity
  kIndependence,    // α̂ vs the Lemma 7.9 lower bound
  kCheckCount,
};

[[nodiscard]] const char* drift_check_name(DriftCheck check);

enum class DriftState : std::uint8_t { kOk = 0, kWarn, kViolation };

[[nodiscard]] const char* drift_state_name(DriftState state);

struct DriftMonitorConfig {
  // score >= violation_ratio is a violation candidate (score > 1 warns).
  double violation_ratio = 2.0;
  // Consecutive candidate probes required to escalate kWarn -> kViolation.
  std::size_t violation_streak = 2;
  // Consecutive in-tolerance probes required to fall back to kOk.
  std::size_t clear_streak = 3;
  // State transitions beyond this many are counted but not logged.
  std::size_t max_logged = 64;
};

struct DriftSample {
  std::uint64_t round = 0;
  double score[static_cast<std::size_t>(DriftCheck::kCheckCount)] = {};
  // The probe fell inside a declared fault window: scores are recorded but
  // never escalate the state machines.
  bool expected = false;
};

struct DriftTransition {
  std::uint64_t round = 0;
  DriftCheck check = DriftCheck::kDegreeOut;
  DriftState from = DriftState::kOk;
  DriftState to = DriftState::kOk;
  double score = 0.0;
};

class DriftMonitor {
 public:
  explicit DriftMonitor(DriftMonitorConfig config = {});

  [[nodiscard]] const DriftMonitorConfig& config() const { return config_; }

  // Called once per check per probe by the oracle; `score` is the
  // normalized deviation (<= 1 in tolerance). Finishing a probe requires a
  // matching end_probe() so per-probe streak accounting stays aligned.
  //
  // An *expected* probe (the round sits inside a declared fault window,
  // plus its grace period) records scores into the sample trail and the
  // expected-peak statistic but drives no state transitions: scripted
  // drift is accounted, not escalated, while undeclared drift still trips
  // VIOLATION. Streaks never span the expected/normal boundary, so an
  // excursion that started inside a window cannot fire the alarm on the
  // first probe after it.
  void begin_probe(std::uint64_t round, bool expected = false);
  void record(DriftCheck check, double score);
  void end_probe();

  [[nodiscard]] DriftState state(DriftCheck check) const {
    return lanes_[static_cast<std::size_t>(check)].state;
  }
  // Worst state over all checks.
  [[nodiscard]] DriftState overall_state() const;
  [[nodiscard]] std::uint64_t warn_transitions() const { return warns_; }
  [[nodiscard]] std::uint64_t violation_transitions() const {
    return violations_;
  }
  // Expected probes seen / expected probes whose worst score breached the
  // warn threshold (drift that a declared fault window accounted for).
  [[nodiscard]] std::uint64_t expected_probes() const {
    return expected_probes_;
  }
  [[nodiscard]] std::uint64_t accounted_excursions() const {
    return accounted_excursions_;
  }
  [[nodiscard]] const std::vector<DriftTransition>& log() const {
    return log_;
  }
  [[nodiscard]] const std::vector<DriftSample>& samples() const {
    return samples_;
  }
  // Peak score seen on a check over the whole run (normal probes only).
  [[nodiscard]] double peak_score(DriftCheck check) const {
    return lanes_[static_cast<std::size_t>(check)].peak;
  }
  // Peak score seen during expected (declared-window) probes.
  [[nodiscard]] double expected_peak_score(DriftCheck check) const {
    return lanes_[static_cast<std::size_t>(check)].expected_peak;
  }

  // Invoked on every transition *into* kViolation.
  void set_violation_callback(
      std::function<void(const DriftTransition&)> callback) {
    on_violation_ = std::move(callback);
  }

  [[nodiscard]] std::string report() const;
  // {"violations":..,"warns":..,"states":{...},"transitions":[...],
  //  "samples":[...]}
  void write_json(std::ostream& out) const;

 private:
  struct Lane {
    DriftState state = DriftState::kOk;
    std::size_t candidate_streak = 0;
    std::size_t ok_streak = 0;
    double peak = 0.0;
    double expected_peak = 0.0;
  };

  void transition(Lane& lane, DriftCheck check, DriftState to, double score);

  DriftMonitorConfig config_;
  Lane lanes_[static_cast<std::size_t>(DriftCheck::kCheckCount)];
  DriftSample current_{};
  bool in_probe_ = false;
  bool last_expected_ = false;
  std::uint64_t warns_ = 0;
  std::uint64_t violations_ = 0;
  std::uint64_t expected_probes_ = 0;
  std::uint64_t accounted_excursions_ = 0;
  std::vector<DriftTransition> log_;
  std::vector<DriftSample> samples_;
  std::function<void(const DriftTransition&)> on_violation_;
};

}  // namespace gossip::obs
