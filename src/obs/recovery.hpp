// RecoveryTracker: degradation-window detection and time-to-recover
// measurement for chaos runs.
//
// The paper's guarantees are steady-state statements; a fault plane (or a
// real outage) pushes the overlay out of that steady state on purpose. The
// tracker watches four *lanes* at every quiescent probe and classifies the
// overlay as in or out of band:
//
//   degree        the mean outdegree collapses more than `degree_drop`
//                 below its last calm baseline (loss spikes push the
//                 degree distribution down toward dL — §6.2's stationary
//                 mean falls with ℓ), or the structural Obs 5.1 band
//                 [dL, s] / even-ness is violated for more than a sliver
//                 of live nodes.
//   connectivity  the largest weakly-connected component of the view
//                 graph covers less than `min_component_fraction` of live
//                 nodes (partition isolation). Note this is a *lagging*
//                 indicator: a group cut keeps stale cross-edges until
//                 S&F washes them out, and a fully decoupled overlay
//                 cannot re-merge (S&F has no discovery), so scenarios
//                 must heal cuts before washout completes.
//   watchdog      the InvariantWatchdog logged new violations since the
//                 previous probe.
//   oracle        the DriftMonitor's worst state is not OK, or its latest
//                 probe carries a score past the warn threshold (this
//                 also sees *expected* probes, so declared fault windows
//                 still register as degradation to be recovered from).
//
// Declared fault windows ([begin, end) + label, mirroring the
// FaultSchedule) anchor the measurement: for each window the tracker
// reports whether the overlay degraded and the number of rounds from the
// heal point (`end`) to the first probe with every lane back in band —
// the recovery time bench_report --chaos gates on. Out-of-band probes not
// covered by any declared window open an *undeclared* episode (measured
// from its own first degraded probe).
//
// Pure observer: draws no RNG, mutates no protocol state. Exports
// recovery_* registry gauges and stamps fault/recovery annotations onto an
// attached RoundTimeSeries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/node_id.hpp"
#include "core/flat_send_forget.hpp"
#include "obs/oracle/drift_monitor.hpp"
#include "obs/registry.hpp"
#include "obs/timeseries.hpp"
#include "obs/watchdog.hpp"

namespace gossip::obs {

enum class RecoveryLane : std::uint8_t {
  kDegree = 0,
  kConnectivity,
  kWatchdog,
  kOracle,
  kLaneCount,
};

[[nodiscard]] const char* recovery_lane_name(RecoveryLane lane);

struct RecoveryConfig {
  std::size_t min_degree = 0;  // dL
  std::size_t view_size = 0;   // s
  // Degree lane trips when more than this fraction of live nodes violates
  // the structural Obs 5.1 band (odd outdegree, or below dL post-warmup).
  double max_structural_fraction = 0.01;
  // Degree lane trips when the mean outdegree falls more than degree_drop
  // below the last calm baseline; it re-enters band within degree_recover
  // of the baseline (hysteresis so a hovering mean does not flap).
  double degree_drop = 1.0;
  double degree_recover = 0.6;
  // Absolute degradation floor for the mean outdegree, as a fraction of the
  // FIRST calm baseline (0 disables). The relative dip signal above chases
  // the calm baseline between excursions, so a decay slow enough to stay
  // within degree_drop of the moving baseline — a 20% mass kill bleeding
  // stale ids out over hundreds of rounds — never trips it (the
  // boiling-frog blind spot). The floor is pinned once, at the first
  // baseline-eligible probe, and trips whenever the mean falls below
  // floor_fraction * that value, however slowly it got there. Re-enters
  // band (degree_drop - degree_recover) above the floor (same hysteresis
  // gap as the dip signal).
  double degree_floor_fraction = 0.0;
  // Connectivity lane trips when the largest weak component of the view
  // graph covers less than this fraction of live nodes.
  double min_component_fraction = 0.995;
  // Probes before this round never trip (bootstrap transient) and never
  // update the calm baseline.
  std::uint64_t warmup_rounds = 100;
};

// One degradation episode: a declared fault window, or an undeclared
// out-of-band excursion.
struct RecoveryEpisode {
  std::string label;     // declared window label, or "undeclared"
  bool declared = false;
  std::uint64_t begin = 0;  // window begin / first degraded probe
  std::uint64_t heal = 0;   // window end (first healed round) / == begin
  bool degraded = false;    // any lane left band during the episode
  std::uint32_t lanes = 0;  // bitmask over RecoveryLane of lanes that tripped
  bool recovered = false;
  std::uint64_t recovered_round = 0;  // first fully in-band probe >= heal

  // Rounds from the heal point to the first fully in-band probe; 0 when
  // the overlay never left band or was back by the first post-heal probe.
  [[nodiscard]] std::uint64_t recovery_rounds() const {
    return recovered && recovered_round > heal ? recovered_round - heal : 0;
  }
};

class RecoveryTracker {
 public:
  explicit RecoveryTracker(RecoveryConfig config);

  [[nodiscard]] const RecoveryConfig& config() const { return config_; }

  // Declares a scripted fault window (call before the run; typically one
  // per FaultPhase). Windows may overlap.
  void declare_window(std::uint64_t begin, std::uint64_t end,
                      std::string label);

  // Mirrors episode transitions ("fault:<label>:begin", ":heal",
  // "recovered:<label>", "degraded:undeclared") onto the series.
  void attach_series(RoundTimeSeries* series) { series_ = series; }

  // Exports recovery_degraded_lanes / recovery_episodes /
  // recovery_unrecovered / recovery_last_rounds gauges, written on `shard`.
  void bind_registry(MetricsRegistry* registry, std::size_t shard);

  // One quiescent probe. `cluster` may be null (connectivity lane stays in
  // band); `watchdog` / `monitor` likewise gate their lanes. Draws no RNG.
  void observe(std::uint64_t round, const FlatClusterProbe& probe,
               const FlatSendForgetCluster* cluster,
               const InvariantWatchdog* watchdog, const DriftMonitor* monitor);

  // Bitmask over RecoveryLane of lanes out of band at the last probe.
  [[nodiscard]] std::uint32_t degraded_lanes() const {
    return degraded_lanes_;
  }
  [[nodiscard]] bool in_band() const { return degraded_lanes_ == 0; }
  // Episodes in declaration order (declared windows first, then undeclared
  // excursions as they opened). Windows the run never reached stay
  // !degraded && !recovered.
  [[nodiscard]] const std::vector<RecoveryEpisode>& episodes() const {
    return episodes_;
  }
  [[nodiscard]] const RecoveryEpisode* episode(const std::string& label) const;
  // Episodes past their heal point whose lanes never returned to band.
  [[nodiscard]] std::size_t unrecovered() const;
  // Largest-component fraction at the last probe (1.0 before any).
  [[nodiscard]] double component_fraction() const {
    return component_fraction_;
  }
  [[nodiscard]] double baseline_mean_degree() const { return baseline_mean_; }
  // The pinned absolute floor (0.0 until the first calm baseline, or when
  // degree_floor_fraction is 0).
  [[nodiscard]] double degree_floor() const {
    return have_floor_ ? floor_value_ : 0.0;
  }

  [[nodiscard]] std::string report() const;
  // {"episodes":[{...}],"degraded_lanes":..,"unrecovered":..}
  void write_json(std::ostream& out) const;

 private:
  [[nodiscard]] std::uint32_t evaluate_lanes(
      std::uint64_t round, const FlatClusterProbe& probe,
      const FlatSendForgetCluster* cluster, const InvariantWatchdog* watchdog,
      const DriftMonitor* monitor);
  [[nodiscard]] double largest_component_fraction(
      const FlatSendForgetCluster& cluster);
  void annotate(std::uint64_t round, std::string label);

  RecoveryConfig config_;
  std::vector<RecoveryEpisode> episodes_;
  std::size_t declared_count_ = 0;
  // Per-declared-window probe bookkeeping (parallel to episodes_ prefix).
  std::vector<std::uint8_t> window_begun_;   // begin annotation emitted
  std::vector<std::uint8_t> window_healed_;  // heal annotation emitted
  std::int64_t open_undeclared_ = -1;        // index into episodes_, -1 none

  std::uint32_t degraded_lanes_ = 0;
  bool degree_mean_out_ = false;  // hysteresis state of the mean-dip signal
  double baseline_mean_ = 0.0;
  bool have_baseline_ = false;
  bool floor_out_ = false;  // hysteresis state of the absolute-floor signal
  double floor_value_ = 0.0;
  bool have_floor_ = false;
  double component_fraction_ = 1.0;
  std::uint64_t last_watchdog_violations_ = 0;

  // Union-find scratch for the connectivity lane.
  std::vector<std::uint32_t> uf_parent_;
  std::vector<std::uint32_t> uf_size_;

  RoundTimeSeries* series_ = nullptr;
  MetricsRegistry* registry_ = nullptr;
  std::size_t registry_shard_ = 0;
  GaugeId degraded_gauge_{};
  GaugeId episodes_gauge_{};
  GaugeId unrecovered_gauge_{};
  GaugeId last_rounds_gauge_{};
};

}  // namespace gossip::obs
