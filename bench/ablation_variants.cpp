// Ablation of the §5 optimizations (the paper's declared future work):
// mark & undelete, replace-when-full, and batched messages, each measured
// against the base protocol at the paper's operating point across loss
// rates. Columns: steady-state mean outdegree, duplication rate,
// undeletion rate, measured dependent-entry fraction, and messages per
// round (batching trades message count for per-message size).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/send_forget.hpp"
#include "graph/connectivity.hpp"
#include "graph/graph_gen.hpp"
#include "graph/graph_stats.hpp"
#include "sampling/spatial.hpp"
#include "sim/round_driver.hpp"

namespace {

using namespace gossip;

struct Row {
  double out_mean = 0.0;
  double dup_rate = 0.0;
  double undelete_rate = 0.0;
  double dependent = 0.0;
  double messages_per_round = 0.0;
  bool connected = false;
};

Row run(const SendForgetConfig& cfg, double loss_rate,
        std::uint64_t seed) {
  Rng rng(seed);
  constexpr std::size_t kN = 800;
  sim::Cluster cluster(kN, [&cfg](NodeId id) {
    return std::make_unique<SendForget>(id, cfg);
  });
  cluster.install_graph(permutation_regular(kN, 10, rng));
  sim::UniformLoss loss(loss_rate);
  sim::RoundDriver driver(cluster, loss, rng);
  driver.run_rounds(400);

  const auto m0 = cluster.aggregate_metrics();
  std::uint64_t undel0 = 0;
  for (NodeId u = 0; u < kN; ++u) {
    undel0 += static_cast<const SendForget&>(cluster.node(u)).undeletions();
  }
  driver.run_rounds(400);
  const auto m1 = cluster.aggregate_metrics();
  std::uint64_t undel1 = 0;
  for (NodeId u = 0; u < kN; ++u) {
    undel1 += static_cast<const SendForget&>(cluster.node(u)).undeletions();
  }

  const double actions = static_cast<double>(
      (m1.actions_initiated - m0.actions_initiated) -
      (m1.self_loop_actions - m0.self_loop_actions));
  Row row;
  row.out_mean = degree_summary(cluster.snapshot()).out_mean;
  row.dup_rate =
      static_cast<double>(m1.duplications - m0.duplications) / actions;
  row.undelete_rate = static_cast<double>(undel1 - undel0) / actions;
  row.dependent =
      sampling::measure_spatial_dependence(cluster).dependent_fraction_upper();
  row.messages_per_round =
      static_cast<double>(m1.messages_sent - m0.messages_sent) / 400.0 /
      static_cast<double>(kN);
  row.connected = is_weakly_connected(cluster.snapshot());
  return row;
}

}  // namespace

int main() {
  using namespace gossip::bench;

  print_header("Ablation — §5 optimizations vs base S&F (s=40, dL=18, n=800)");

  struct Variant {
    const char* name;
    SendForgetConfig cfg;
  };
  const std::vector<Variant> variants = {
      {"base", SendForgetConfig{}},
      {"mark+undelete",
       SendForgetConfig{.mark_instead_of_clear = true}},
      {"replace-full", SendForgetConfig{.replace_when_full = true}},
      {"batch p=2", SendForgetConfig{.pairs_per_message = 2}},
      {"all three", SendForgetConfig{.pairs_per_message = 2,
                                        .mark_instead_of_clear = true,
                                        .replace_when_full = true}},
  };

  std::uint64_t seed = 1;
  for (const double loss : {0.0, 0.05, 0.1}) {
    print_subheader("loss = " + std::to_string(loss).substr(0, 4));
    std::printf("%16s | %9s %9s %10s %10s %9s %6s\n", "variant", "out-mean",
                "dup-rate", "undel-rate", "dependent", "msgs/rnd", "conn");
    for (const auto& variant : variants) {
      const auto row = run(variant.cfg, loss, seed++);
      std::printf("%16s | %9.2f %9.4f %10.4f %10.4f %9.3f %6s\n",
                  variant.name, row.out_mean, row.dup_rate, row.undelete_rate,
                  row.dependent, row.messages_per_round,
                  row.connected ? "yes" : "NO");
    }
  }
  print_note("mark+undelete converts duplications into undeletions "
             "(targeted loss compensation); replace-when-full keeps views "
             "full and fresher at the cost of dropping older ids; batching "
             "halves the message count per gossiped id but raises the "
             "activity threshold — an action needs 2p nonempty slots, so "
             "low-degree systems quasi-freeze under large p.");
  return 0;
}
