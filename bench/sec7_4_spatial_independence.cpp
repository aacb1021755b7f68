// Reproduces §7.4 / Property M4: the expected fraction of independent view
// entries is at least 1 - 2(l + delta) (Lemma 7.9). Prints the exact and
// simplified analytical bounds next to the dependence measured from the
// simulated protocol (dependence tags + self-edges + intra-view
// duplicates) across loss rates.
//
// Expected shape: measured dependent fraction grows roughly linearly in l
// (about twice as fast as the loss rate per the paper), and stays below
// the analytical bound.
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/independence.hpp"
#include "bench_util.hpp"
#include "core/send_forget.hpp"
#include "graph/graph_gen.hpp"
#include "sampling/spatial.hpp"
#include "sim/round_driver.hpp"

namespace {

using namespace gossip;

// Runs S&F to steady state at `loss_rate` and returns `measure(cluster)`.
template <typename Measure>
auto simulate(double loss_rate, std::uint64_t seed, Measure measure) {
  Rng rng(seed);
  constexpr std::size_t kN = 1200;
  sim::Cluster cluster(kN, [](NodeId id) {
    return std::make_unique<SendForget>(id, default_send_forget_config());
  });
  cluster.install_graph(permutation_regular(kN, 10, rng));
  sim::UniformLoss loss(loss_rate);
  sim::RoundDriver driver(cluster, loss, rng);
  driver.run_rounds(600);
  return measure(cluster);
}

}  // namespace

int main() {
  using namespace gossip::bench;
  constexpr double kDelta = 0.01;  // §6.3 tolerance for dL=18, s=40

  print_header("§7.4 — spatial independence (Lemma 7.9, Property M4)");
  std::printf(
      "%6s | %12s %12s | %10s %10s %10s %10s | %12s\n", "loss",
      "bound exact", "bound 2(l+d)", "measured", "tagged", "self", "dups",
      "alpha est.");
  for (const double l : {0.0, 0.005, 0.01, 0.02, 0.05, 0.1}) {
    const auto dep = simulate(l, 77 + static_cast<std::uint64_t>(l * 1000),
                              sampling::measure_spatial_dependence);
    const double exact = analysis::dependent_fraction_bound(l, kDelta);
    const double simple = analysis::dependent_fraction_bound_simple(l, kDelta);
    std::printf(
        "%6.3f | %12.4f %12.4f | %10.4f %10.4f %10.4f %10.4f | %12.4f\n", l,
        exact, simple, dep.dependent_fraction_upper(), dep.tagged_fraction(),
        static_cast<double>(dep.self_edges) / static_cast<double>(dep.entries),
        static_cast<double>(dep.intra_view_duplicates) /
            static_cast<double>(dep.entries),
        dep.independence_estimate());
  }
  print_note("paper: dependent fraction bounded by 2(l+delta); with typical "
             "l ~ 1% the vast majority of entries are independent.");

  print_subheader("Reciprocity (dependence between neighboring views)");
  for (const double l : {0.0, 0.05, 0.1}) {
    std::printf("  loss=%5.2f  reciprocal-edge fraction = %.4f\n", l,
                simulate(l, 177 + static_cast<std::uint64_t>(l * 1000),
                         sampling::reciprocity_fraction));
  }
  print_note("duplication keeps the sent ids, creating mutual edges; the "
             "reciprocity fraction therefore tracks the duplication rate.");
  return 0;
}
