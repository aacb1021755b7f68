// Online dL retuning under loss drift — the §6.3 threshold rule applied
// live, closing the loop from the TheoryOracle's drift detection back into
// the protocol configuration.
//
// The stationary out-degree of a dL/s overlay falls as the loss rate ℓ
// rises (§6.2), so a sustained loss spike drags the degree distribution —
// and the windowed dup/del rates — out of the band the oracle was primed
// with, and an unattended run ends in a drift VIOLATION even though the
// protocol itself is behaving exactly as the theory predicts *at the new
// ℓ*. The controller restores the match:
//
//   1. estimate ℓ̂ from the counter deltas over a trailing probe window
//      ((lost + faulted + to_dead) / sent — pure arithmetic on counters
//      the drivers already collect);
//   2. on the FIRST out-of-tolerance probe (any DriftMonitor lane scoring
//      past the warn threshold; the monitor needs `violation_streak`
//      consecutive candidates to escalate, so acting on the first breach
//      always beats the alarm) with a materially changed ℓ̂, declare a
//      provisional expected-fault window — escalation is suppressed from
//      the first breach, while the trailing-window ℓ̂ is still diluted by
//      pre-drift traffic. Once the estimate plateaus (the newest
//      inter-probe estimate agrees with the window), re-solve the
//      stationary prediction at (s, dL′, ℓ̂) over ascending even dL′ via
//      the injected solver (wired to the exact §6.2 solve — ~ms per
//      candidate, cache-served on repeats) and pick the smallest dL′
//      whose predicted E[out] is within `degree_margin` of the original
//      target while the predicted duplication stays inside the Lemma 6.7
//      band at ℓ̂ (falling back to the largest band-compliant dL′ when the
//      target is unreachable, e.g. ℓ̂ too close to the validity boundary);
//   3. install dL′ through the actuator (FlatSendForgetCluster::
//      set_min_degree — takes effect at the next initiate action), swap
//      the oracle's prediction (TheoryOracle::update_prediction restarts
//      the windowed-rate and uniformity baselines), and declare the
//      transition excursion as an expected fault window so the drift
//      between the two stationary points is accounted, never escalated —
//      extending the window while the overlay is still moving.
//
// Determinism contract (pinned in tests/test_retune.cpp): the controller
// draws no RNG — every decision is arithmetic on probe statistics — and
// set_min_degree touches no view state, so a run with the controller
// attached but never triggered (or in dry_run mode) produces bit-identical
// cluster fingerprints to a run without it.
//
// The solver is injected as a callback so gossip_sim keeps its dependency
// surface: the analysis library (which links nothing of sim) provides the
// §6.2 solve at the tool layer; sim only sees obs::TheoryPrediction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/oracle/theory_oracle.hpp"
#include "obs/timeseries.hpp"

namespace gossip::sim {

struct RetuneConfig {
  // Lemma 6.7 band width for the re-solved prediction.
  double delta = 0.01;

  // Trailing probes in the ℓ̂ estimation window (ring buffer of counter
  // snapshots; the estimate spans the oldest retained probe to the
  // current one).
  std::size_t loss_window_probes = 8;
  // Probes before the first estimate is trusted.
  std::size_t min_probes = 4;

  // A retune requires |ℓ̂ − prediction ℓ| at least this large (guards
  // against reacting to drift that a new ℓ cannot explain) unless the
  // threshold selection itself moves dL.
  double min_loss_step = 0.02;

  // The windowed ℓ̂ and the most recent inter-probe estimate must agree
  // within this before a retune fires: while they disagree the window
  // still mixes pre- and post-drift traffic, and solving at the diluted
  // ℓ̂ would install a prediction for a loss rate the network has already
  // left behind.
  double stability_tolerance = 0.01;

  // Predicted E[out] may fall this far below the original prediction's
  // E[out] before a larger dL′ is required.
  double degree_margin = 2.0;

  // Expected-excursion window declared around a retune: [round, round +
  // window_rounds) plus the oracle's grace. While the latest expected
  // probe still scores past the warn threshold within `extend_headroom`
  // rounds of the window end, the window grows by `extend_rounds` (up to
  // `max_extensions` times) — the overlay is still travelling between the
  // stationary points.
  std::uint64_t window_rounds = 200;
  std::uint64_t grace_rounds = 60;
  std::uint64_t extend_headroom = 40;
  std::uint64_t extend_rounds = 100;
  std::size_t max_extensions = 8;

  // Rounds after a retune before another is considered, and a cap on
  // installs per run (a drifting estimate must not chase its own tail).
  std::uint64_t cooldown_rounds = 150;
  std::size_t max_retunes = 4;

  // Evaluate and record decisions but touch nothing: no actuation, no
  // oracle mutation. The zero-RNG / bit-identical-fingerprint proof mode.
  bool dry_run = false;
};

struct RetuneEvent {
  std::uint64_t round = 0;
  double loss_estimate = 0.0;
  std::size_t old_min_degree = 0;
  std::size_t new_min_degree = 0;
  double predicted_out = 0.0;
  double predicted_duplication = 0.0;
  bool applied = false;  // false when dry_run suppressed the install
};

class RetuneController {
 public:
  // Solves the stationary prediction at (view_size, min_degree, loss) with
  // band width `delta`. Must be deterministic; called only on retune
  // decisions (a handful of candidate dL′ per event).
  using Solver = std::function<obs::TheoryPrediction(
      std::size_t view_size, std::size_t min_degree, double loss,
      double delta)>;
  // Installs a new dL on the cluster (between rounds; the drivers call the
  // controller from the quiescent observe hook).
  using Actuator = std::function<void(std::size_t min_degree)>;

  RetuneController(RetuneConfig config, Solver solver, Actuator actuator);

  // Binds the oracle whose monitor is watched and whose prediction is
  // swapped. The original prediction's E[out] is captured as the degree
  // target. Must be called before the driver runs.
  void bind_oracle(obs::TheoryOracle* oracle);

  // One quiescent probe, invoked by the drivers right after the oracle's
  // own observe. Draws no RNG.
  void observe(std::uint64_t round, const obs::CumulativeCounters& counters);

  [[nodiscard]] const RetuneConfig& config() const { return config_; }
  [[nodiscard]] const std::vector<RetuneEvent>& events() const {
    return events_;
  }
  // Events that actually installed a new configuration (dry_run events
  // and prediction-only rebases count in events(), not here).
  [[nodiscard]] std::size_t retunes_applied() const { return applied_; }
  [[nodiscard]] double last_loss_estimate() const { return loss_estimate_; }
  [[nodiscard]] std::size_t installed_min_degree() const {
    return installed_min_degree_;
  }

  [[nodiscard]] std::string report() const;
  // {"events":[...],"applied":...,"loss_estimate":...}
  void write_json(std::ostream& out) const;

 private:
  struct Snapshot {
    std::uint64_t round = 0;
    std::uint64_t sent = 0;
    std::uint64_t dropped = 0;  // lost + faulted + to_dead
  };

  [[nodiscard]] bool estimate_loss(std::uint64_t round,
                                   const obs::CumulativeCounters& counters);
  [[nodiscard]] std::size_t select_min_degree(
      double loss, obs::TheoryPrediction* best) const;
  void retune(std::uint64_t round);
  void maybe_extend_window(std::uint64_t round);

  RetuneConfig config_;
  Solver solver_;
  Actuator actuator_;
  obs::TheoryOracle* oracle_ = nullptr;

  double target_out_ = 0.0;
  std::size_t view_size_ = 0;
  std::size_t installed_min_degree_ = 0;
  std::size_t original_min_degree_ = 0;
  bool primed_ = false;

  std::vector<Snapshot> window_;  // ring, oldest first
  double loss_estimate_ = 0.0;
  double recent_estimate_ = 0.0;  // newest inter-probe interval only
  bool estimate_ready_ = false;

  std::uint64_t window_end_ = 0;  // active expected-excursion window
  // A provisional window is open: drift detected and escalation
  // suppressed, but the install waits for ℓ̂ to plateau.
  bool pending_retune_ = false;
  std::size_t extensions_ = 0;
  std::uint64_t cooldown_until_ = 0;
  std::size_t applied_ = 0;
  std::vector<RetuneEvent> events_;
};

}  // namespace gossip::sim
