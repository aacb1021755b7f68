// Deterministic link-level fault plane.
//
// The paper analyzes uniform i.i.d. loss (§4.1) and explicitly leaves the
// correlated, nonuniform loss of real deployments to practice ("nonuniform
// loss occurs in practice [33]"). The fault plane closes that gap for the
// simulator: it sees every message as a (from, to, round) triple and
// composes a declarative FaultSchedule — timed phases of group partitions,
// regional blackouts, loss spikes, per-region Gilbert-Elliott bursts and
// degraded shards — on top of whatever ambient LossModel the run uses.
//
// Determinism contract (mirrors the ShardedDriver's): every probabilistic
// draw comes from the *caller's* RNG — the sender's shard stream in the
// sharded driver — through a caller-owned Context, so a run with a fault
// plane attached is bit-identical for a fixed (seed, shard_count). While no
// phase is active, drop() returns false without consuming any RNG, so a
// run with an attached-but-idle fault plane is bit-identical to a run with
// none at all (pinned in tests/test_fault_plane.cpp).
//
// Structural rules (partition, blackout) draw no RNG either — they are
// pure functions of (from, to, round). Burst phases advance one
// Gilbert-Elliott chain per (Context, phase): with one Context per shard
// that is a per-shard channel, the same single-shared-state-machine
// semantics as GilbertElliottLoss itself (see sim/loss.hpp).
//
// Nodes are grouped into `regions` contiguous id blocks (region_of), the
// same way the sharded driver blocks ids into shards — a stand-in for
// racks / datacenters without a topology model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/node_id.hpp"
#include "common/rng.hpp"

namespace gossip::sim {

enum class FaultKind : std::uint8_t {
  kPartition,     // cut between two id ranges (symmetric or one-way)
  kBlackout,      // all traffic into and out of one region is dropped
  kLossSpike,     // extra i.i.d. loss, global or scoped to a sender region
  kBurst,         // Gilbert-Elliott bursts for senders in one region
  kDegradeShard,  // extra i.i.d. loss for senders owned by one shard
};

[[nodiscard]] const char* fault_kind_name(FaultKind kind);

// One timed phase. Active on rounds in [begin, end); `end` is the first
// healed round. Which fields matter depends on `kind` (see members).
struct FaultPhase {
  FaultKind kind = FaultKind::kLossSpike;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  // kPartition: groups A = [a_lo, a_hi] and B = [b_lo, b_hi] (inclusive).
  // Symmetric cuts drop both directions; asymmetric cuts only A -> B.
  NodeId a_lo = 0;
  NodeId a_hi = 0;
  NodeId b_lo = 0;
  NodeId b_hi = 0;
  bool symmetric = true;

  // kBlackout / kBurst / region-scoped kLossSpike: sender (and, for
  // blackouts, receiver) region index in [0, regions).
  std::size_t region = 0;
  bool region_scoped = false;  // kLossSpike only

  // kLossSpike / kDegradeShard: extra per-message drop probability.
  // kBurst: long-run average extra loss (loss is 1 inside bursts, 0
  // outside, like bursty_loss()).
  double rate = 0.0;
  // kBurst: mean burst length in messages (>= 1).
  double burst_len = 4.0;

  // kDegradeShard: sender shard index (ids blocked by nodes_per_shard).
  std::size_t shard = 0;

  // Name used in reports, annotations and declared-window labels.
  std::string label;

  [[nodiscard]] bool active(std::uint64_t round) const {
    return round >= begin && round < end;
  }
};

struct FaultSchedule {
  // Contiguous node-id regions the blackout / spike / burst phases refer
  // to. Must be >= 1.
  std::size_t regions = 1;
  std::vector<FaultPhase> phases;

  [[nodiscard]] bool empty() const { return phases.empty(); }
  // Min begin over phases (UINT64_MAX when empty) / max end (0 when empty).
  [[nodiscard]] std::uint64_t first_begin() const;
  [[nodiscard]] std::uint64_t last_end() const;
};

// A parsed scenario file: the fault schedule plus the run-configuration
// key/value lines (nodes, rounds, seed, ... — interpreted by the caller,
// e.g. `sfgossip chaos`). Format, one directive per line, '#' comments:
//
//   nodes 20000                    # any non-phase line is a config pair
//   regions 4                      # schedule-level: region count
//   phase partition 150 170 a=0-9999 b=10000-19999 mode=symmetric label=split
//   phase blackout 200 220 region=2 label=dc2-dark
//   phase loss_spike 240 260 rate=0.2 [region=1] label=spike
//   phase burst 280 320 region=1 rate=0.3 burst_len=8 label=wifi
//   phase degrade 340 360 shard=3 rate=0.5 label=slow-shard
// One config pair plus where it came from, so callers re-parsing the value
// (range checks in `sfgossip chaos`) can report "file:line: ..." instead of
// a bare flag error.
struct ScenarioConfigEntry {
  std::string key;
  std::string value;
  std::size_t line = 0;  // 1-based line number in the scenario file
};

struct ScenarioFile {
  FaultSchedule schedule;
  std::vector<ScenarioConfigEntry> config;
  std::string path;  // set by load_scenario_file; empty for raw streams
};

// Returns false and sets *error (when non-null) on malformed input; *out is
// left in an unspecified state on failure.
[[nodiscard]] bool parse_scenario(std::istream& in, ScenarioFile* out,
                                  std::string* error);
[[nodiscard]] bool load_scenario_file(const std::string& path,
                                      ScenarioFile* out, std::string* error);

class FaultPlane {
 public:
  // `node_count` fixes the region blocking; `shard_count` fixes the id ->
  // shard blocking kDegradeShard phases use (ceil(n / shard_count), the
  // ShardedDriver's own mapping; 1 for the unsharded drivers). Throws
  // std::invalid_argument on out-of-range phase parameters.
  FaultPlane(FaultSchedule schedule, std::size_t node_count,
             std::size_t shard_count = 1);

  // Per-caller mutable state: the active-phase cache and the burst-chain
  // states. One Context per shard (or per driver), owned by the caller and
  // only ever touched from the caller's thread — the plane itself stays
  // immutable and shareable after construction.
  struct Context {
    std::uint64_t cached_round = UINT64_MAX;
    std::vector<std::uint32_t> active;     // indices of phases active now
    std::vector<std::uint8_t> burst_bad;   // per-phase G-E chain state
  };
  [[nodiscard]] Context make_context() const;

  [[nodiscard]] const FaultSchedule& schedule() const { return schedule_; }
  [[nodiscard]] std::size_t node_count() const { return node_count_; }
  [[nodiscard]] std::size_t regions() const { return schedule_.regions; }
  [[nodiscard]] std::size_t region_of(NodeId u) const {
    return static_cast<std::size_t>(
        static_cast<std::uint64_t>(u) * schedule_.regions / node_count_);
  }

  // Samples the fault fate of one message: true means the fault plane
  // drops it. Zero RNG draws whenever no phase is active (the hot path is
  // two compares); structural phases draw none even while active.
  bool drop(NodeId from, NodeId to, std::uint64_t round, Rng& rng,
            Context& ctx) const {
    if (round < first_begin_ || round >= last_end_) return false;
    return drop_slow(from, to, round, rng, ctx);
  }

  // One-line description of each phase (for reports / --scenario echo).
  [[nodiscard]] std::string describe() const;

 private:
  bool drop_slow(NodeId from, NodeId to, std::uint64_t round, Rng& rng,
                 Context& ctx) const;
  void refresh(std::uint64_t round, Context& ctx) const;

  FaultSchedule schedule_;
  std::size_t node_count_;
  std::size_t nodes_per_shard_;
  std::uint64_t first_begin_;
  std::uint64_t last_end_;
  // Per-phase Gilbert-Elliott transition probabilities (kBurst only):
  // r = 1 / burst_len, p solves p / (p + r) = rate.
  std::vector<double> burst_p_;
  std::vector<double> burst_r_;
};

}  // namespace gossip::sim
