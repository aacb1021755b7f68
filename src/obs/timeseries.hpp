// Round time-series recorder: strided snapshots of the quantities the
// paper's steady-state claims are about — degree-distribution summaries
// (Obs 5.1 / §6), duplication/deletion/self-loop/loss rates (Lemmas
// 6.6/6.7), live-node count, and empty-slot fraction.
//
// Rates are *interval* rates: the recorder differences the cumulative
// driver counters between successive samples, so each row describes the
// window since the previous one (the first row describes everything since
// the run started).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/node_id.hpp"
#include "core/flat_send_forget.hpp"

namespace gossip::obs {

struct DegreeSummary {
  double mean = 0.0;
  double sd = 0.0;
  std::uint32_t min = 0;
  std::uint32_t max = 0;

  friend bool operator==(const DegreeSummary&, const DegreeSummary&) = default;
};

// Cumulative driver counters at sampling time. `sent` counts messages the
// initiator actually produced (self-loop actions send nothing); every sent
// message is eventually lost, delivered, dead-dropped, or fault-dropped.
struct CumulativeCounters {
  std::uint64_t actions = 0;
  std::uint64_t self_loops = 0;
  std::uint64_t duplications = 0;
  std::uint64_t deletions = 0;
  std::uint64_t sent = 0;
  std::uint64_t lost = 0;
  std::uint64_t delivered = 0;
  std::uint64_t to_dead = 0;
  // Drops injected by an attached fault plane (kept separate from ambient
  // `lost` so post-mortems can tell scripted faults from background loss).
  std::uint64_t faulted = 0;
  // Ids actually stored by receivers. With §5 batched messages a delivery
  // can be partially accepted, so this is counted, not derived.
  std::uint64_t ids_accepted = 0;
};

struct RoundSample {
  std::uint64_t round = 0;
  std::size_t live_nodes = 0;
  DegreeSummary outdegree;
  DegreeSummary indegree;
  double empty_slot_fraction = 0.0;
  // Interval rates since the previous sample: duplications / deletions per
  // sent message, self-loops per action, (lost + to_dead) per sent message,
  // fault-plane drops per sent message.
  double duplication_rate = 0.0;
  double deletion_rate = 0.0;
  double self_loop_rate = 0.0;
  double loss_rate = 0.0;
  double fault_rate = 0.0;
};

// One O(n * s) pass over a flat cluster: out/in degree summaries over live
// nodes (indegree counts id instances held in live views), live count, the
// fraction of empty view slots among live nodes, full degree histograms
// (outdegree_hist[d] = live nodes with outdegree d; indegree capped into
// the last bucket), and the dependence census the TheoryOracle's α̂ check
// reads (occupied view slots among live nodes / how many carry the
// dependent tag). obs/probe.hpp computes it, serially or in slices.
struct FlatClusterProbe {
  DegreeSummary outdegree;
  DegreeSummary indegree;
  std::size_t live_nodes = 0;
  double empty_slot_fraction = 0.0;
  std::vector<std::uint64_t> outdegree_hist;  // size view_size + 1
  std::vector<std::uint64_t> indegree_hist;   // size 2*view_size+1, last = overflow
  std::uint64_t occupied_slots = 0;
  std::uint64_t dependent_entries = 0;
  // Live nodes in the largest weakly connected component of the view graph
  // (edges between live nodes only). Set only by a probe that took the
  // component census: the sharded driver's, when a recovery tracker is
  // attached, which then reads it instead of walking the cluster again.
  std::optional<std::uint64_t> largest_component;

  friend bool operator==(const FlatClusterProbe&,
                         const FlatClusterProbe&) = default;
};
// `occurrences`, when non-null, is resized to cluster.size() and filled
// with each id's occurrence count across live views; dead ids get
// kDeadNodeOccurrence (UINT32_MAX, declared in obs/oracle/theory_oracle.hpp)
// so streaming consumers can tell "dead" from "live but never referenced".
// One slice over every node; leaves largest_component unset.
[[nodiscard]] FlatClusterProbe probe_cluster(
    const FlatSendForgetCluster& cluster,
    std::vector<std::uint32_t>* occurrences = nullptr);

// A point-in-time marker on the series (fault-phase boundaries, recovery
// events); kept out of the per-sample schema so consumers of the sample
// array are unaffected.
struct SeriesAnnotation {
  std::uint64_t round = 0;
  std::string label;
};

class RoundTimeSeries {
 public:
  explicit RoundTimeSeries(std::uint64_t stride = 1);

  [[nodiscard]] std::uint64_t stride() const { return stride_; }
  [[nodiscard]] bool due(std::uint64_t round) const {
    return round % stride_ == 0;
  }

  void record(std::uint64_t round, const DegreeSummary& outdegree,
              const DegreeSummary& indegree, std::size_t live_nodes,
              double empty_slot_fraction, const CumulativeCounters& cumulative);

  [[nodiscard]] const std::vector<RoundSample>& samples() const {
    return samples_;
  }
  void clear();

  // Attach a marker to the series (e.g. "fault:split:begin" from the
  // RecoveryTracker). Rounds are expected nondecreasing but not enforced.
  void annotate(std::uint64_t round, std::string label);
  [[nodiscard]] const std::vector<SeriesAnnotation>& annotations() const {
    return annotations_;
  }

  void write_csv(std::ostream& out) const;
  // JSON array of sample objects.
  void write_json(std::ostream& out) const;
  // JSON array of {"round":..,"label":".."} annotation objects. Labels
  // are JSON-escaped (scenario labels are free text).
  void write_annotations_json(std::ostream& out) const;
  // "round,label" CSV with RFC 4180 quoting for labels containing
  // commas, quotes, or newlines.
  void write_annotations_csv(std::ostream& out) const;

 private:
  std::uint64_t stride_;
  CumulativeCounters prev_{};
  std::vector<RoundSample> samples_;
  std::vector<SeriesAnnotation> annotations_;
};

}  // namespace gossip::obs
