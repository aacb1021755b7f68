// Appendix A, executed: the reachability construction behind Lemma A.1.
//
// For pairs of membership graphs sampled from the same no-loss S&F system
// (hence sharing the sum-degree vector, Lemma 6.2), the planner emits an
// explicit sequence of degree-borrowing and edge-exchange moves — each
// realizable as 1-2 S&F actions — transforming one graph exactly into the
// other. The bench reports plan sizes, the move mix, and verifies every
// plan by replay. This makes the irreducibility at the heart of §7
// (Lemmas A.1-A.3, 7.1) constructive rather than existential.
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bench_util.hpp"
#include "core/send_forget.hpp"
#include "graph/graph_gen.hpp"
#include "graph/reachability.hpp"
#include "sim/round_driver.hpp"

namespace {

using namespace gossip;
using namespace gossip::graph_ops;

std::pair<Digraph, Digraph> snapshot_pair(std::size_t n, std::size_t k,
                                          std::uint64_t rounds_apart,
                                          std::uint64_t seed) {
  Rng rng(seed);
  sim::Cluster cluster(n, [](NodeId id) {
    return std::make_unique<SendForget>(
        id, SendForgetConfig{.view_size = 64, .min_degree = 0});
  });
  cluster.install_graph(permutation_regular(n, k, rng));
  sim::UniformLoss loss(0.0);
  sim::RoundDriver driver(cluster, loss, rng);
  driver.run_rounds(50);
  Digraph a = cluster.snapshot();
  driver.run_rounds(rounds_apart);
  Digraph b = cluster.snapshot();
  return {std::move(a), std::move(b)};
}

}  // namespace

int main() {
  using namespace gossip::bench;
  constexpr TransformLimits kLimits{.view_size = 64, .min_degree = 0};

  print_header("Appendix A — constructive reachability (Lemma A.1)");
  std::printf(
      "%6s %8s %14s | %10s %10s %10s %8s\n", "n", "edges", "rounds apart",
      "moves", "exchanges", "borrows", "exact?");

  for (const std::size_t n : {12u, 24u, 48u, 96u}) {
    for (const std::uint64_t apart : {20u, 200u}) {
      const auto [from, to] = snapshot_pair(n, 4, apart, 100 + n + apart);
      std::vector<Move> moves;
      try {
        moves = plan_transformation(from, to, kLimits);
      } catch (const std::runtime_error& error) {
        // The planner throws when its route search finds no plan (or
        // every plan would partition the graph): report the pair, go on.
        std::printf("%6zu %8zu %14llu | refused: %s\n", n, from.edge_count(),
                    static_cast<unsigned long long>(apart), error.what());
        continue;
      }
      std::size_t exchanges = 0;
      std::size_t borrows = 0;
      for (const auto& move : moves) {
        if (move.kind == Move::Kind::kEdgeExchange) {
          ++exchanges;
        } else {
          ++borrows;
        }
      }
      Digraph work = from;
      apply_moves(work, moves, kLimits);
      std::printf("%6zu %8zu %14llu | %10zu %10zu %10zu %8s\n", n,
                  from.edge_count(), static_cast<unsigned long long>(apart),
                  moves.size(), exchanges, borrows,
                  work == to ? "yes" : "NO");
    }
  }
  print_note("every plan that is not refused replays to the exact target "
             "graph; plan length "
             "scales near-linearly with the edge count (each relocation "
             "costs O(path length) primitive exchanges). Lemma A.1's "
             "'finite number of transformations' is typically a few per "
             "edge.");
  return 0;
}
