// Bridge from the analysis solvers to the obs-layer TheoryPrediction: the
// obs library cannot link analysis (the dependency points the other way),
// so the oracle's input is produced here — one §6.2 stationary solve plus
// the Lemma 7.9 closed-form bound, packed into plain data.
//
// The §6.2 answer comes from one solver, the degree-MC fixed point
// (analysis/degree_mc): about 2 ms at s=40, dL=18 on its direct banded
// inner solve (DESIGN.md §6, "One §6.2 solver").
//
// Solved predictions are memoized in a process-wide cache keyed on the
// model-defining parameters (box, loss, truncation, fixed-sum line,
// delta), so repeated requests for the same point — the oracle setup in
// bench_report, sfgossip, and the retuning controller's re-solves — pay
// for the stationary solve once.
#pragma once

#include <cstddef>

#include "analysis/degree_mc.hpp"
#include "obs/oracle/prediction.hpp"

namespace gossip::analysis {

// The solver behind a prediction. kExactMc is the only one; the enum and
// make_theory_prediction's `source` argument stay because the benchmark
// harness (perfbench/sfbench.cpp) names them.
enum class PredictionSource {
  kExactMc,  // solve_degree_mc
};

// Solves the stationary degree model at `params` and packages the
// marginals, action-outcome probabilities, and the α ≥ 1 − 2(ℓ+δ) bound
// for the TheoryOracle. Results are served from the process-wide cache
// when the same (params, delta) point was solved before; solver tuning
// fields (tolerances, acceleration) are not part of the key. Propagates
// the solver's exceptions on bad parameters.
[[nodiscard]] obs::TheoryPrediction make_theory_prediction(
    const DegreeMcParams& params, double delta = 0.01,
    PredictionSource source = PredictionSource::kExactMc);

// Cache introspection for benchmarks and tests. Counters are cumulative
// for the process; `size` is the current number of cached predictions.
struct PredictionCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t size = 0;
};
[[nodiscard]] PredictionCacheStats prediction_cache_stats();

// Drops all cached predictions and resets the hit/miss counters.
void clear_prediction_cache();

}  // namespace gossip::analysis
