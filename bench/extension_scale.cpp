// Extension: scale check. The analysis holds for "arbitrary n >> s"; this
// bench runs the full simulator with loss and churn and reports wall-clock
// throughput plus the same health metrics as the small benches.
//
// Part 1 is the serialized RoundDriver (the paper's analysis model) at
// 10k-50k nodes. Part 2 is the sharded flat-storage driver at 50k-1M nodes,
// single- and multi-threaded — demonstrating that mean-field-scale studies
// (n >= 10^5-10^6, where refined mean-field analyses become checkable
// against simulation) are within reach of this implementation.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "core/flat_send_forget.hpp"
#include "core/send_forget.hpp"
#include "graph/connectivity.hpp"
#include "graph/digraph.hpp"
#include "graph/graph_gen.hpp"
#include "graph/graph_stats.hpp"
#include "sim/churn.hpp"
#include "sim/round_driver.hpp"
#include "sim/sharded_driver.hpp"

namespace {

using namespace gossip;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Live-only indegree mean/sd over a snapshot's edges.
struct InDegreeStats {
  double mean = 0.0;
  double sd = 0.0;
};

InDegreeStats live_indegree_stats(const std::vector<std::size_t>& live_in,
                                  const std::vector<NodeId>& live) {
  double mean = 0.0;
  double m2 = 0.0;
  std::size_t count = 0;
  for (const NodeId u : live) {
    const double x = static_cast<double>(live_in[u]);
    ++count;
    const double delta = x - mean;
    mean += delta / static_cast<double>(count);
    m2 += delta * (x - mean);
  }
  return {mean, std::sqrt(m2 / static_cast<double>(count))};
}

double run_sequential(std::size_t n) {
  using namespace gossip::bench;
  Rng rng(7 + n);
  const auto factory = [](NodeId id) {
    return std::make_unique<SendForget>(id, default_send_forget_config());
  };
  sim::Cluster cluster(n, factory);
  cluster.install_graph(permutation_regular(n, 10, rng));
  sim::UniformLoss loss(0.02);
  sim::RoundDriver driver(cluster, loss, rng);
  sim::ChurnProcess churn(cluster, factory, 18, /*join_rate=*/1.0,
                          /*leave_rate=*/1.0, /*min_live=*/n / 2);

  const std::size_t rounds = 200;
  const auto start = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    churn.maybe_churn(rng);
    driver.run_rounds(1);
  }
  const double elapsed = seconds_since(start);

  std::vector<std::size_t> live_in(cluster.size(), 0);
  const auto live = cluster.live_nodes();
  for (const NodeId u : live) {
    for (const NodeId v : cluster.node(u).view().ids()) {
      if (v < live_in.size()) ++live_in[v];
    }
  }
  const auto stats = live_indegree_stats(live_in, live);
  const auto snap = cluster.snapshot();
  const double aps =
      static_cast<double>(driver.actions_executed()) / elapsed;
  std::printf("%8zu %8zu %7s | %10.2f %9.2f %7zu%% %6s | %14.3g\n", n, rounds,
              "seq", stats.mean, stats.sd,
              100 * (churn.total_joins() + churn.total_leaves()) / (2 * rounds),
              is_weakly_connected_among(snap, cluster.liveness()) ? "yes"
                                                                  : "NO",
              aps);
  return aps;
}

double run_sharded(std::size_t n, std::size_t shards, std::size_t threads,
                   std::size_t rounds) {
  using namespace gossip::bench;
  Rng rng(7 + n);
  FlatSendForgetCluster cluster(n, default_send_forget_config(),
                                FlatClusterOptions{.init_threads = threads});
  cluster.install_graph(permutation_regular(n, 10, rng));
  // Logical shards are the determinism unit; threads are an execution knob.
  // shards > threads is the cache-residency configuration: each shard's
  // slab slice stays L2-resident through its initiate/drain phases.
  sim::ShardedDriver driver(
      cluster, sim::ShardedDriverConfig{.shard_count = shards,
                                        .thread_count = threads,
                                        .loss_rate = 0.02,
                                        .seed = 7 + n});

  // Rate-matched churn: ~1 leave + 1 rejoin per round, as in part 1.
  std::size_t churn_events = 0;
  std::vector<NodeId> dead;
  const auto start = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    Rng& crng = driver.churn_rng();
    const auto victim = static_cast<NodeId>(crng.uniform(n));
    if (cluster.live(victim) && cluster.live_count() > n / 2) {
      driver.kill(victim);
      dead.push_back(victim);
      ++churn_events;
    }
    if (!dead.empty() && crng.bernoulli(0.5)) {
      driver.revive(dead.back());
      dead.pop_back();
      ++churn_events;
    }
    driver.run_rounds(1);
  }
  const double elapsed = seconds_since(start);

  std::vector<std::size_t> live_in(n, 0);
  std::vector<NodeId> live;
  live.reserve(cluster.live_count());
  std::vector<bool> liveness(n, false);
  for (NodeId u = 0; u < n; ++u) {
    if (!cluster.live(u)) continue;
    live.push_back(u);
    liveness[u] = true;
    for (const NodeId v : cluster.view_ids(u)) ++live_in[v];
  }
  const auto stats = live_indegree_stats(live_in, live);

  Digraph snap(n);
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : cluster.view_ids(u)) snap.add_edge(u, v);
  }
  const double aps =
      static_cast<double>(driver.actions_executed()) / elapsed;
  std::printf("%8zu %8zu %4zus/%zut | %10.2f %9.2f %7zu%% %6s | %12.3g\n", n,
              rounds, shards, threads, stats.mean, stats.sd,
              100 * churn_events / (2 * rounds),
              is_weakly_connected_among(snap, liveness) ? "yes" : "NO", aps);
  return aps;
}

// Part 3: the 10M-node operating point. Seeded slot-by-slot from a
// circulant family (slot j of u = (u + j + 1) mod n — each offset a
// permutation, so the overlay starts dL-regular) because a Digraph's
// vector-of-vectors adjacency would dwarf the packed slab itself here.
// No snapshot either, for the same reason: health is summarized from a
// linear degree scan.
void run_sharded_huge(std::size_t n, std::size_t shards, std::size_t threads,
                      std::size_t rounds) {
  using namespace gossip::bench;
  const SendForgetConfig cfg = default_send_forget_config();
  FlatSendForgetCluster cluster(n, cfg,
                                FlatClusterOptions{.init_threads = threads});
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t j = 0; j < cfg.min_degree; ++j) {
      cluster.install_slot(u, j, static_cast<NodeId>((u + j + 1) % n));
    }
  }
  sim::ShardedDriver driver(
      cluster, sim::ShardedDriverConfig{.shard_count = shards,
                                        .thread_count = threads,
                                        .loss_rate = 0.02,
                                        .seed = 7 + n});
  const auto start = Clock::now();
  driver.run_rounds(rounds);
  const double elapsed = seconds_since(start);
  double mean = 0.0;
  for (NodeId u = 0; u < n; ++u) {
    mean += static_cast<double>(cluster.degree(u));
  }
  mean /= static_cast<double>(n);
  const double aps =
      static_cast<double>(driver.actions_executed()) / elapsed;
  std::printf("%8zu %8zu %4zus/%zut | out-mean %6.2f | %12.3g actions/s\n", n,
              rounds, shards, threads, mean, aps);
}

}  // namespace

int main() {
  using namespace gossip::bench;

  print_header("Extension — scale 1: serialized driver at 10k-50k nodes");
  std::printf("%8s %8s %7s | %10s %9s %8s %6s | %14s\n", "n", "rounds", "drv",
              "in-mean", "in-sd", "churn", "conn", "actions/sec");
  double seq_50k = 0.0;
  for (const std::size_t n : {10'000u, 20'000u, 50'000u}) {
    seq_50k = run_sequential(n);
  }

  print_header("Extension — scale 2: sharded flat driver at 50k-1M nodes");
  std::printf("%8s %8s %9s | %10s %9s %8s %6s | %12s\n", "n", "rounds",
              "sh/thr", "in-mean", "in-sd", "churn", "conn", "actions/sec");
  const double flat_1t = run_sharded(50'000, 1, 1, 200);
  const double flat_32sh = run_sharded(50'000, 32, 1, 200);
  const double flat_4t = run_sharded(50'000, 4, 4, 200);
  run_sharded(200'000, 4, 4, 100);
  run_sharded(1'000'000, 64, 4, 30);

  std::printf("\n  sharded vs sequential at n=50k: 1 shard/1 thread %.2fx, "
              "32 shards/1 thread %.2fx, 4 shards/4 threads %.2fx\n",
              flat_1t / seq_50k, flat_32sh / seq_50k, flat_4t / seq_50k);

  print_header("Extension — scale 3: packed slab at 10M nodes");
  run_sharded_huge(10'000'000, 64, 4, 3);

  print_note("the flat-storage sharded driver removes per-action heap "
             "allocation, virtual dispatch and O(s) slot scans; 4-byte "
             "packed view entries halve the slab; runs are bit-reproducible "
             "for a fixed (seed, shard_count) at any thread count, and the "
             "overlay keeps the paper's shape up to n = 10^6 (M2 holds, "
             "live overlay connected, churned ids washed out).");
  return 0;
}
