// Churn: joining and leaving nodes.
//
// Per §5, a joining node must know at least dL ids of live nodes before
// engaging in the protocol (obtained by copying another node's view), and it
// starts with outdegree dL and indegree 0 (§6.5). Leaving/failing nodes take
// no action at all — they just stop participating, and the protocol washes
// their ids out of other views.
#pragma once

#include <cstddef>
#include <vector>

#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "sim/cluster.hpp"
#include "sim/loss.hpp"

namespace gossip::sim {

// Collects `count` distinct ids of *live* nodes for a joiner, primarily from
// the view of `contact` (plus the contact itself), topping up from views of
// other random live nodes if needed. Throws if fewer than `count` distinct
// live ids exist in the whole system.
[[nodiscard]] std::vector<NodeId> bootstrap_ids(const Cluster& cluster,
                                                NodeId contact,
                                                std::size_t count, Rng& rng);

// Spawns a new node via `factory`, bootstrapping its view with
// `initial_degree` ids obtained from a random live contact. Returns the new
// node's id.
NodeId join_node(Cluster& cluster, const Cluster::ProtocolFactory& factory,
                 std::size_t initial_degree, Rng& rng);

// Reconnects a previously failed node (§5: "in case of reconnection, by
// probing previously seen ids"): the node probes every id remembered from
// its pre-failure view; probes of dead nodes go unanswered, and each probe
// of a live node is lost with the probe_loss model (optional). Survivors
// seed the new view, topped up via a bootstrap contact if fewer than
// `initial_degree` remain. Throws std::logic_error if the node is live.
void rejoin_node(Cluster& cluster, NodeId id,
                 const Cluster::ProtocolFactory& factory,
                 std::size_t initial_degree, Rng& rng,
                 LossModel* probe_loss = nullptr);

// A simple churn workload: each call to maybe_churn() performs, in
// expectation, `join_rate` joins and `leave_rate` leaves (Bernoulli per
// call). Never kills the last `min_live` nodes.
class ChurnProcess {
 public:
  ChurnProcess(Cluster& cluster, Cluster::ProtocolFactory factory,
               std::size_t joiner_degree, double join_rate, double leave_rate,
               std::size_t min_live = 8);

  // Applies at most one join and one leave; returns ids affected
  // (kNilNode when no such event fired).
  struct Outcome {
    NodeId joined = kNilNode;
    NodeId left = kNilNode;
  };
  Outcome maybe_churn(Rng& rng);

  [[nodiscard]] std::size_t total_joins() const { return joins_; }
  [[nodiscard]] std::size_t total_leaves() const { return leaves_; }

 private:
  Cluster& cluster_;
  Cluster::ProtocolFactory factory_;
  std::size_t joiner_degree_;
  double join_rate_;
  double leave_rate_;
  std::size_t min_live_;
  std::size_t joins_ = 0;
  std::size_t leaves_ = 0;
};

// Runs `rounds` rounds on a round-synchronous driver (sharded or arena),
// killing floor(fraction * n) distinct live nodes, drawn from the driver's
// churn stream, between rounds kill_round - 1 and kill_round. Without a
// kill (fraction 0, or kill_round past the run) it is one run_rounds call.
// Returns the number of nodes killed.
template <class Driver, class Nodes>
std::size_t run_with_mass_kill(Driver& driver, const Nodes& cluster,
                               std::uint64_t rounds, double fraction,
                               std::uint64_t kill_round) {
  if (fraction <= 0.0 || kill_round >= rounds) {
    driver.run_rounds(rounds);
    return 0;
  }
  driver.run_rounds(kill_round);
  const std::size_t n = cluster.size();
  const auto to_kill =
      static_cast<std::size_t>(fraction * static_cast<double>(n));
  Rng& rng = driver.churn_rng();
  std::size_t killed = 0;
  while (killed < to_kill) {
    const auto victim = static_cast<NodeId>(rng.uniform(n));
    if (cluster.live(victim)) {
      driver.kill(victim);
      ++killed;
    }
  }
  driver.run_rounds(rounds - kill_round);
  return killed;
}

}  // namespace gossip::sim
