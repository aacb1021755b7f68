// Microbenchmarks (google-benchmark): throughput of the protocol's hot
// paths and of the supporting substrates. Not a paper figure — these
// document that the implementation is fast enough for large-scale
// simulation studies (millions of actions per second).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "analysis/degree_analytical.hpp"
#include "analysis/degree_mc.hpp"
#include "analysis/prediction.hpp"
#include "common/rng.hpp"
#include "core/flat_send_forget.hpp"
#include "core/send_forget.hpp"
#include "graph/connectivity.hpp"
#include "graph/graph_gen.hpp"
#include "markov/sparse_chain.hpp"
#include "obs/probe.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/timeseries.hpp"
#include "obs/watchdog.hpp"
#include "sim/round_driver.hpp"
#include "sim/sharded_driver.hpp"

namespace {

using namespace gossip;

void BM_RngUniform(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform(40));
  }
}
BENCHMARK(BM_RngUniform);

void BM_RngDistinctPair(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.distinct_pair(40));
  }
}
BENCHMARK(BM_RngDistinctPair);

// LocalView's empty-slot draw at d = s/2: the row rejection draw of
// core/packed_view.hpp, the same one the flat engine's receive makes.
void BM_ViewRandomEmptySlot(benchmark::State& state) {
  LocalView view(40);
  for (std::size_t i = 0; i < 20; ++i) view.set(i, ViewEntry{1, false});
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.random_empty_slot(rng));
  }
}
BENCHMARK(BM_ViewRandomEmptySlot);

// --------------------------------------------------------------------------
// Packed-slab primitives. The packed engine's two inner operations are the
// distinct-pair slot sample in initiate() and the empty-slot store in
// receive(); both walk 4-byte PackedViewEntry rows (a 40-slot row is 160 B
// = 2.5 cache lines, vs 8 lines for the unpacked ViewEntry layout).

// Pure two-slot sample: every node sits at d = dL, so initiate() always
// duplicates and keeps its slots — the state never changes and the loop
// times exactly one distinct-pair draw, two packed loads, and (on the
// ~72% of draws that hit two nonempty slots) the message formation.
void BM_PackedTwoSlotSample(benchmark::State& state) {
  constexpr std::size_t kN = 4096;
  Rng rng(11);
  SendForgetConfig cfg = default_send_forget_config();
  cfg.min_degree = 34;  // max legal dL for s = 40: stay in duplicate mode
  FlatSendForgetCluster cluster(kN, cfg);
  cluster.install_graph(permutation_regular(kN, cfg.min_degree, rng));
  FlatPush msg;
  NodeId u = 0;
  std::uint64_t sent = 0;
  for (auto _ : state) {
    sent += cluster.initiate(u, rng, msg) != FlatInitiateResult::kSelfLoop;
    u = (u + 1) & (kN - 1);
  }
  benchmark::DoNotOptimize(sent);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PackedTwoSlotSample);

// Packed store round trip at high fill: each iteration delivers one 2-id
// message (two empty-slot rejection samples + two 4-byte stores) and then
// initiates until a send clears a slot pair again, so the degree oscillates
// between 30 and 32 forever. Items = delivered messages; the initiate side
// is the clearing path already timed above.
void BM_PackedStoreDeliver(benchmark::State& state) {
  constexpr std::size_t kN = 4096;
  Rng rng(12);
  const SendForgetConfig cfg = default_send_forget_config();
  FlatSendForgetCluster cluster(kN, cfg);
  cluster.install_graph(permutation_regular(kN, 30, rng));
  FlatPush out;
  NodeId u = 0;
  for (auto _ : state) {
    FlatPush msg;
    msg.count = 2;
    msg.ids[0] = PackedViewEntry::pack((u + 1) & (kN - 1), false);
    msg.ids[1] = PackedViewEntry::pack((u + 2) & (kN - 1), true);
    benchmark::DoNotOptimize(cluster.receive(u, msg, rng));
    while (cluster.initiate(u, rng, out) == FlatInitiateResult::kSelfLoop) {
    }
    u = (u + 1) & (kN - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PackedStoreDeliver);

// --------------------------------------------------------------------------
// Cross-shard handoff: push a round's worth of messages and drain them
// frame-at-a-time (the mailbox the sharded driver ships between shards)
// vs a plain std::vector<FlatPush> push_back/iterate (the single-push
// scheme the frames replaced). Both reach steady-state capacity after the
// first iteration; the delta is the frame bookkeeping against the
// vector's size/capacity checks on an identical sequential walk.

constexpr std::size_t kMailboxBatch = 1024;

void BM_FrameMailboxPushDrain(benchmark::State& state) {
  sim::FrameMailbox box;
  FlatPush msg;
  msg.count = 2;
  msg.ids[0] = PackedViewEntry::pack(1, false);
  msg.ids[1] = PackedViewEntry::pack(2, true);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kMailboxBatch; ++i) {
      msg.to = static_cast<NodeId>(i);
      box.push(msg);
    }
    for (std::size_t f = 0; f < box.used; ++f) {
      const sim::BatchFrame& frame = box.frames[f];
      for (std::uint32_t i = 0; i < frame.count; ++i) {
        sink += frame.messages[i].to;
      }
    }
    box.clear();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kMailboxBatch));
}
BENCHMARK(BM_FrameMailboxPushDrain);

void BM_VectorPushDrain(benchmark::State& state) {
  std::vector<FlatPush> box;
  FlatPush msg;
  msg.count = 2;
  msg.ids[0] = PackedViewEntry::pack(1, false);
  msg.ids[1] = PackedViewEntry::pack(2, true);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kMailboxBatch; ++i) {
      msg.to = static_cast<NodeId>(i);
      box.push_back(msg);
    }
    for (const FlatPush& m : box) {
      sink += m.to;
    }
    box.clear();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kMailboxBatch));
}
BENCHMARK(BM_VectorPushDrain);

// One round of the object engine's serialized driver at the paper's
// operating point: live_count() actions, each with its message delivery.
// At n = 2,000 the cluster fits in cache; at n = 50,000 every action walks
// the node's protocol object and view row from memory, which is the cost
// the driver's batch prefetch hides; at n = 200,000 the object table and
// heap outgrow L2 as well.
void BM_RoundDriverRound(benchmark::State& state) {
  Rng rng(4);
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Cluster cluster(n, [](NodeId id) {
    return std::make_unique<SendForget>(id, default_send_forget_config());
  });
  cluster.install_graph(permutation_regular(n, 10, rng));
  sim::UniformLoss loss(0.01);
  sim::RoundDriver driver(cluster, loss, rng);
  driver.run_rounds(50);  // reach steady state before timing
  for (auto _ : state) {
    driver.run_rounds(1);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cluster.live_count()));
}
BENCHMARK(BM_RoundDriverRound)->Arg(2000)->Arg(50000)->Arg(200000);

// One round of the flat-storage sharded driver (sharded hot path: no
// per-action allocation, no virtual dispatch, row-local slot draws).
// range(0) = n, range(1) = shard/thread count.
void BM_FlatShardedRound(benchmark::State& state) {
  Rng rng(4);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  FlatSendForgetCluster cluster(n, default_send_forget_config());
  cluster.install_graph(permutation_regular(n, 10, rng));
  sim::ShardedDriver driver(
      cluster, sim::ShardedDriverConfig{
                   .shard_count = threads, .loss_rate = 0.01, .seed = 4});
  driver.run_rounds(50);  // reach steady state before timing
  for (auto _ : state) {
    driver.run_rounds(1);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FlatShardedRound)
    ->Args({10000, 1})
    ->Args({10000, 4})
    ->Args({100000, 1})
    ->Args({100000, 4})
    ->Args({1000000, 1})
    ->Args({1000000, 4});

// Registry hot path: the per-shard counter increment, through the public
// API and through the cached raw slab pointer (the path the sharded driver
// actually takes). Both must be a plain add into a cache-resident cell —
// any atomics or hashing sneaking in shows up here long before it shows in
// the < 2% end-to-end overhead gate of BENCH_scale.json.
void BM_RegistryCounterAdd(benchmark::State& state) {
  obs::MetricsRegistry registry(4);
  const obs::CounterId id = registry.counter("hot");
  for (auto _ : state) {
    registry.add(id, 0);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(registry.counter_value(id));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistryCounterAdd);

void BM_RegistryCounterAddRawSlab(benchmark::State& state) {
  obs::MetricsRegistry registry(4);
  const obs::CounterId id = registry.counter("hot");
  std::uint64_t* slab = registry.counters(0);
  for (auto _ : state) {
    ++slab[id.index];
    benchmark::DoNotOptimize(slab);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistryCounterAddRawSlab);

// BM_FlatShardedRound with the full observability stack attached
// (time-series + watchdog at stride 10, profiler). The delta against the
// bare variant above is the per-round observation cost.
void BM_FlatShardedRoundObserved(benchmark::State& state) {
  Rng rng(4);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const SendForgetConfig cfg = default_send_forget_config();
  FlatSendForgetCluster cluster(n, cfg);
  cluster.install_graph(permutation_regular(n, cfg.min_degree, rng));
  sim::ShardedDriver driver(
      cluster, sim::ShardedDriverConfig{
                   .shard_count = threads, .loss_rate = 0.01, .seed = 4});
  obs::RoundTimeSeries series(10);
  obs::InvariantWatchdog watchdog(obs::WatchdogConfig{
      .min_degree = cfg.min_degree, .view_size = cfg.view_size});
  obs::PhaseProfiler profiler(threads);
  driver.attach_time_series(&series);
  driver.attach_watchdog(&watchdog);
  driver.attach_profiler(&profiler);
  driver.run_rounds(50);  // reach steady state before timing
  for (auto _ : state) {
    driver.run_rounds(1);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FlatShardedRoundObserved)
    ->Args({10000, 4})
    ->Args({100000, 4});

// The serial probe over a warmed 50k flat cluster, whose rows are about
// half empty at random positions: the degree census alone (range(0) = 0,
// obs::probe_cluster) and with the component census (range(0) = 1).
void BM_ProbeCensus(benchmark::State& state) {
  const std::size_t n = 50'000;
  const bool components = state.range(0) != 0;
  const SendForgetConfig cfg = default_send_forget_config();
  Rng rng(8);
  FlatSendForgetCluster cluster(n, cfg);
  cluster.install_graph(permutation_regular(n, cfg.min_degree, rng));
  sim::ShardedDriver driver(
      cluster, sim::ShardedDriverConfig{
                   .shard_count = 4, .loss_rate = 0.01, .seed = 8});
  driver.run_rounds(50);
  obs::ProbeSlices probe;
  std::vector<std::uint32_t> occurrences;
  for (auto _ : state) {
    if (components) {
      benchmark::DoNotOptimize(
          probe.run(obs::FlatViews(cluster), /*components=*/true,
                    &occurrences));
    } else {
      benchmark::DoNotOptimize(obs::probe_cluster(cluster, &occurrences));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ProbeCensus)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_SnapshotGraph(benchmark::State& state) {
  Rng rng(5);
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Cluster cluster(n, [](NodeId id) {
    return std::make_unique<SendForget>(id, default_send_forget_config());
  });
  cluster.install_graph(permutation_regular(n, 10, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster.snapshot());
  }
}
BENCHMARK(BM_SnapshotGraph)->Arg(1000);

// The initial overlay of every S&F run: permutation_regular at n =
// range(0), k = range(1), build and free. Serial, so wall clock.
void BM_PermutationRegular(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(permutation_regular(n, k, rng));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * k));
}
BENCHMARK(BM_PermutationRegular)
    ->Args({50000, 18})
    ->Args({1000000, 18})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_WeakConnectivityCheck(benchmark::State& state) {
  Rng rng(6);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = random_out_regular(n, 10, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(is_weakly_connected(g));
  }
}
BENCHMARK(BM_WeakConnectivityCheck)->Arg(1000)->Arg(10000);

void BM_AnalyticalDegreePmf(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::analytical_outdegree_pmf(90));
  }
}
BENCHMARK(BM_AnalyticalDegreePmf);

// ---------------------------------------------------------------------------
// SpMV: one step pi' = pi P of a row-stochastic chain, dense vs CSR.
// The CSR path switches to the thread pool automatically once the
// transition count crosses SparseChain's parallel threshold (2^15), so the
// largest Arg below exercises the parallel gather and the smaller ones the
// serial one — the crossover is visible directly in the reported rates.

constexpr std::size_t kNnzPerRow = 8;

// A random chain with `k` off-diagonal transitions per row (total mass
// 0.9; the rest is the implied self-loop).
markov::SparseChain random_chain(std::size_t n, std::size_t k) {
  markov::SparseChain chain(n);
  Rng rng(17);
  const double p = 0.9 / static_cast<double>(k);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      std::size_t to = rng.uniform(n);
      if (to == i) to = (to + 1) % n;
      chain.add(i, to, p);
    }
  }
  chain.finalize();
  return chain;
}

void BM_SpmvDense(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const markov::SparseChain chain = random_chain(n, kNnzPerRow);
  // Densify (diagonal carries the implied self-loop mass).
  std::vector<double> dense(n * n, 0.0);
  {
    std::vector<double> e(n, 0.0);
    std::vector<double> row;
    for (std::size_t i = 0; i < n; ++i) {
      e[i] = 1.0;
      chain.step_into(e, row);
      for (std::size_t j = 0; j < n; ++j) dense[i * n + j] = row[j];
      dense[i * n + i] += 1.0 - chain.row_sum(i);
      e[i] = 0.0;
    }
  }
  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  for (auto _ : state) {
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const double w = pi[i];
      const double* row = &dense[i * n];
      for (std::size_t j = 0; j < n; ++j) next[j] += w * row[j];
    }
    benchmark::DoNotOptimize(next.data());
    pi.swap(next);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_SpmvDense)->Arg(512)->Arg(2048);

void BM_SpmvCsr(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const markov::SparseChain chain = random_chain(n, kNnzPerRow);
  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> next;
  for (auto _ : state) {
    chain.step_into(pi, next);
    benchmark::DoNotOptimize(next.data());
    pi.swap(next);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(chain.transition_count()));
}
// 131072 rows * 8 nnz is far past the parallel threshold: parallel CSR.
BENCHMARK(BM_SpmvCsr)->Arg(512)->Arg(2048)->Arg(131072);

// ---------------------------------------------------------------------------
// Full §6.2 degree-MC solve at a reduced operating point: the classic
// damped fixed point vs Anderson mixing (both on the direct banded inner
// solve, so the delta isolates the outer update rule).

analysis::DegreeMcParams micro_degree_params(
    analysis::DegreeMcAcceleration accel) {
  analysis::DegreeMcParams p;
  p.view_size = 20;
  p.min_degree = 8;
  p.loss = 0.05;
  p.acceleration = accel;
  return p;
}

void BM_DegreeMcDamped(benchmark::State& state) {
  const auto params =
      micro_degree_params(analysis::DegreeMcAcceleration::kDamped);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::solve_degree_mc(params));
  }
}
BENCHMARK(BM_DegreeMcDamped)->Unit(benchmark::kMillisecond);

void BM_DegreeMcAnderson(benchmark::State& state) {
  const auto params =
      micro_degree_params(analysis::DegreeMcAcceleration::kAnderson);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::solve_degree_mc(params));
  }
}
BENCHMARK(BM_DegreeMcAnderson)->Unit(benchmark::kMillisecond);

// Prediction cache, hit path: the steady state of the retune controller's
// re-solves — a mutex-guarded map lookup plus one TheoryPrediction copy.
void BM_PredictionCacheHit(benchmark::State& state) {
  const auto params =
      micro_degree_params(analysis::DegreeMcAcceleration::kAnderson);
  analysis::clear_prediction_cache();
  benchmark::DoNotOptimize(analysis::make_theory_prediction(params, 0.01));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::make_theory_prediction(params, 0.01));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredictionCacheHit)->Unit(benchmark::kMicrosecond);

// Inner stationary solve on a fixed chain: plain power iteration vs the
// Anderson-accelerated path (same stopping criterion).
void BM_StationaryPower(benchmark::State& state) {
  const markov::SparseChain chain = random_chain(4096, kNnzPerRow);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.stationary({}, 1e-12, 200'000, false));
  }
}
BENCHMARK(BM_StationaryPower)->Unit(benchmark::kMillisecond);

void BM_StationaryAnderson(benchmark::State& state) {
  const markov::SparseChain chain = random_chain(4096, kNnzPerRow);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.stationary({}, 1e-12, 200'000, true));
  }
}
BENCHMARK(BM_StationaryAnderson)->Unit(benchmark::kMillisecond);

// The §6.2 inner-solve shape: 558 states, every transition within 12 of
// the diagonal. Anderson-accelerated power iteration vs the direct banded
// GTH reduction the degree MC uses.
markov::SparseChain banded_chain(std::size_t n, std::size_t half_width) {
  markov::SparseChain chain(n);
  Rng rng(19);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < kNnzPerRow; ++j) {
      const std::size_t lo = i > half_width ? i - half_width : 0;
      const std::size_t hi = std::min(n - 1, i + half_width);
      std::size_t to = lo + rng.uniform(hi - lo + 1);
      if (to == i) to = i > lo ? i - 1 : i + 1;
      chain.add(i, to, 0.9 * rng.uniform_double() / kNnzPerRow);
    }
  }
  chain.finalize();
  return chain;
}

void BM_StationaryAndersonBanded(benchmark::State& state) {
  const markov::SparseChain chain = banded_chain(558, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.stationary({}, 1e-13, 500'000, true));
  }
}
BENCHMARK(BM_StationaryAndersonBanded)->Unit(benchmark::kMillisecond);

void BM_StationaryDirectBanded(benchmark::State& state) {
  const markov::SparseChain chain = banded_chain(558, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.stationary_direct());
  }
}
BENCHMARK(BM_StationaryDirectBanded)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
