#include "analysis/degree_mc.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/stats.hpp"

namespace gossip::analysis {
namespace {

DegreeMcParams paper_params(double loss) {
  DegreeMcParams p;
  p.view_size = 40;
  p.min_degree = 18;
  p.loss = loss;
  return p;
}

TEST(DegreeMc, ValidatesParameters) {
  DegreeMcParams p;
  p.view_size = 5;
  EXPECT_THROW(solve_degree_mc(p), std::invalid_argument);
  p = DegreeMcParams{};
  p.min_degree = 17;
  EXPECT_THROW(solve_degree_mc(p), std::invalid_argument);
  p = DegreeMcParams{};
  p.min_degree = 36;  // > s - 6
  EXPECT_THROW(solve_degree_mc(p), std::invalid_argument);
  p = DegreeMcParams{};
  p.loss = 1.0;
  EXPECT_THROW(solve_degree_mc(p), std::invalid_argument);
  p = DegreeMcParams{};
  p.fixed_sum_degree = 30;  // requires dL = 0
  EXPECT_THROW(solve_degree_mc(p), std::invalid_argument);
  p = DegreeMcParams{};
  p.min_degree = 0;
  p.fixed_sum_degree = 42;  // > s
  EXPECT_THROW(solve_degree_mc(p), std::invalid_argument);
}

TEST(DegreeMc, StationaryIsNormalizedAndMarginalsMatch) {
  const auto r = solve_degree_mc(paper_params(0.01));
  EXPECT_TRUE(r.converged);
  double total = 0.0;
  for (const double x : r.stationary) total += x;
  EXPECT_NEAR(total, 1.0, 1e-9);
  double out_total = 0.0;
  for (const double x : r.out_pmf) out_total += x;
  EXPECT_NEAR(out_total, 1.0, 1e-9);
  const auto out_m = pmf_moments(r.out_pmf);
  EXPECT_NEAR(out_m.mean, r.expected_out, 1e-9);
}

TEST(DegreeMc, OutdegreeSupportRespectsThresholds) {
  // Observation 5.1: outdegree even, within [dL, s].
  const auto r = solve_degree_mc(paper_params(0.05));
  for (std::size_t d = 0; d < r.out_pmf.size(); ++d) {
    if (d % 2 == 1 || d < 18 || d > 40) {
      EXPECT_DOUBLE_EQ(r.out_pmf[d], 0.0) << "d=" << d;
    }
  }
  EXPECT_GE(r.expected_out, 18.0);
  EXPECT_LE(r.expected_out, 40.0);
}

TEST(DegreeMc, NoLossSteadyStateIsBalanced) {
  const auto r = solve_degree_mc(paper_params(0.0));
  // Mean-field consistency: E[in] = E[out] (every edge has a head and a
  // tail).
  EXPECT_NEAR(r.expected_in, r.expected_out, 0.05);
  // Lemma 6.6 with l = 0: dup = del.
  EXPECT_NEAR(r.duplication_probability, r.deletion_probability, 1e-6);
  // §6.3: with these thresholds the no-loss duplication probability is the
  // tolerance delta = 0.01 (approximately).
  EXPECT_LT(r.duplication_probability, 0.012);
}

TEST(DegreeMc, Lemma66DupEqualsLossPlusDeletion) {
  for (const double loss : {0.01, 0.05, 0.1}) {
    const auto r = solve_degree_mc(paper_params(loss));
    EXPECT_NEAR(r.duplication_probability,
                loss + r.deletion_probability, 1e-4)
        << "loss=" << loss;
  }
}

TEST(DegreeMc, Lemma67DuplicationWithinBand) {
  // dup in [l, l + delta] with delta ~ the no-loss duplication prob.
  const double delta = solve_degree_mc(paper_params(0.0)).duplication_probability;
  for (const double loss : {0.01, 0.05, 0.1}) {
    const auto r = solve_degree_mc(paper_params(loss));
    EXPECT_GE(r.duplication_probability, loss - 1e-6);
    EXPECT_LE(r.duplication_probability, loss + delta + 1e-3);
  }
}

TEST(DegreeMc, Lemma64ExpectedOutdegreeDecreasesWithLoss) {
  double prev = 41.0;
  for (const double loss : {0.0, 0.01, 0.05, 0.1, 0.2}) {
    const auto r = solve_degree_mc(paper_params(loss));
    EXPECT_LT(r.expected_out, prev) << "loss=" << loss;
    EXPECT_GT(r.expected_out, 18.0);  // stays above dL
    prev = r.expected_out;
  }
}

TEST(DegreeMc, Observation65DeletionDecreasesWithLoss) {
  double prev = 1.0;
  for (const double loss : {0.0, 0.01, 0.05, 0.1}) {
    const auto r = solve_degree_mc(paper_params(loss));
    EXPECT_LE(r.deletion_probability, prev + 1e-9) << "loss=" << loss;
    prev = r.deletion_probability;
  }
}

TEST(DegreeMc, PaperFig63IndegreeMeans) {
  // §6.4: indegree means 28, 27, 24, 23 for l = 0, .01, .05, .1.
  const double expected[] = {28.0, 27.0, 24.0, 23.0};
  const double losses[] = {0.0, 0.01, 0.05, 0.1};
  for (int k = 0; k < 4; ++k) {
    const auto r = solve_degree_mc(paper_params(losses[k]));
    EXPECT_NEAR(r.expected_in, expected[k], 0.6) << "loss=" << losses[k];
  }
}

TEST(DegreeMc, FixedSumLineConservesSumDegree) {
  DegreeMcParams p;
  p.view_size = 30;
  p.min_degree = 0;
  p.loss = 0.0;
  p.fixed_sum_degree = 30;
  const auto r = solve_degree_mc(p);
  EXPECT_TRUE(r.converged);
  // All states sit on the line out + 2*in = 30.
  for (const auto& st : r.states) {
    EXPECT_EQ(st.out + 2 * st.in, 30u);
  }
  // Lemma 6.3: mean degree dm/3 = 10.
  EXPECT_NEAR(r.expected_out, 10.0, 0.3);
  EXPECT_NEAR(r.expected_in, 10.0, 0.3);
  // No loss, dL = 0: no duplications; no deletions on the line.
  EXPECT_DOUBLE_EQ(r.duplication_probability, 0.0);
  EXPECT_NEAR(r.deletion_probability, 0.0, 1e-9);
}

TEST(DegreeMc, FixedSumMatchesAnalyticalApproximation) {
  DegreeMcParams p;
  p.view_size = 90;
  p.min_degree = 0;
  p.loss = 0.0;
  p.fixed_sum_degree = 90;
  const auto r = solve_degree_mc(p);
  // The paper's Fig 6.1: analytical and MC distributions have similar form;
  // means agree at dm/3 = 30.
  EXPECT_NEAR(pmf_moments(r.out_pmf).mean, 30.0, 0.2);
  EXPECT_NEAR(pmf_moments(r.in_pmf).mean, 30.0, 0.1);
}

TEST(DegreeMc, SumDegreeCapDoesNotAffectResults) {
  // §6.2: the 3s truncation is purely computational. Doubling it must not
  // change the answer measurably.
  auto p = paper_params(0.05);
  const auto base = solve_degree_mc(p);
  p.sum_degree_cap = 6 * p.view_size;
  const auto wide = solve_degree_mc(p);
  EXPECT_NEAR(base.expected_in, wide.expected_in, 0.02);
  EXPECT_NEAR(base.expected_out, wide.expected_out, 0.02);
  EXPECT_NEAR(base.duplication_probability, wide.duplication_probability,
              1e-3);
}


TEST(DegreeMc, ConvergenceDiagnosticsArePopulated) {
  const auto r = solve_degree_mc(paper_params(0.05));
  ASSERT_TRUE(r.converged);
  EXPECT_GT(r.fixed_point_iterations, 0u);
  EXPECT_LE(r.fixed_point_iterations, DegreeMcParams{}.max_fixed_point_iterations);
  // One direct stationary solve per outer iteration, each exact to
  // rounding.
  EXPECT_EQ(r.stationary_iterations, r.fixed_point_iterations);
  EXPECT_LE(r.fixed_point_residual, DegreeMcParams{}.fixed_point_tolerance);
  EXPECT_LE(r.stationary_residual, 1e-13);
}

// ℓ = 0.98 leaves ℓ + δ just inside 1: the chain's drift almost vanishes,
// and an extrapolated outer iterate can zero every o > dL entry, leaving
// a reducible chain whose stationary laws are bogus fixed points (e.g.
// E[in] = 26 at s = 20). The pinned answers come from the inner
// power-iteration solver that converged there in millions of steps.
struct BoundaryPin {
  std::size_t view_size;
  std::size_t min_degree;
  double expected_out;
  double expected_in;
  double duplication;
};

TEST(DegreeMc, AnswersAtTheLossBoundary) {
  const BoundaryPin pins[] = {
      {20, 8, 8.025205008043, 8.026767896546, 0.980012674240},
      {40, 18, 18.032713907506, 18.032798125602, 0.980000329163},
  };
  for (const BoundaryPin& pin : pins) {
    DegreeMcParams p;
    p.view_size = pin.view_size;
    p.min_degree = pin.min_degree;
    p.loss = 0.98;
    const auto r = solve_degree_mc(p);
    ASSERT_TRUE(r.converged) << "s=" << pin.view_size;
    EXPECT_NEAR(r.expected_out, pin.expected_out, 1e-8)
        << "s=" << pin.view_size;
    EXPECT_NEAR(r.expected_in, pin.expected_in, 1e-8)
        << "s=" << pin.view_size;
    EXPECT_NEAR(r.duplication_probability, pin.duplication, 1e-8)
        << "s=" << pin.view_size;
  }
}

TEST(DegreeMc, SweepMatchesPerPointSolves) {
  const std::vector<double> losses{0.0, 0.02, 0.08};
  auto p = paper_params(0.0);
  const auto swept = solve_degree_mc_sweep(p, losses);
  ASSERT_EQ(swept.size(), losses.size());
  for (std::size_t i = 0; i < losses.size(); ++i) {
    p.loss = losses[i];
    const auto single = solve_degree_mc(p);
    ASSERT_TRUE(swept[i].converged) << "loss=" << losses[i];
    EXPECT_NEAR(swept[i].expected_in, single.expected_in, 1e-8)
        << "loss=" << losses[i];
    EXPECT_NEAR(swept[i].expected_out, single.expected_out, 1e-8)
        << "loss=" << losses[i];
    EXPECT_NEAR(swept[i].duplication_probability,
                single.duplication_probability, 1e-8)
        << "loss=" << losses[i];
  }
}

TEST(DegreeMc, SweepValidatesLosses) {
  const std::vector<double> bad{0.0, 1.0};
  EXPECT_THROW(solve_degree_mc_sweep(paper_params(0.0), bad),
               std::invalid_argument);
  const std::vector<double> empty;
  EXPECT_TRUE(solve_degree_mc_sweep(paper_params(0.0), empty).empty());
}

TEST(DegreeMc, DampedAndAndersonFindTheSameFixedPoint) {
  auto p = paper_params(0.05);
  p.acceleration = DegreeMcAcceleration::kAnderson;
  const auto anderson = solve_degree_mc(p);
  p.acceleration = DegreeMcAcceleration::kDamped;
  const auto damped = solve_degree_mc(p);
  ASSERT_TRUE(anderson.converged);
  ASSERT_TRUE(damped.converged);
  EXPECT_NEAR(anderson.expected_in, damped.expected_in, 1e-8);
  EXPECT_NEAR(anderson.expected_out, damped.expected_out, 1e-8);
  // The point of Anderson mixing: materially fewer outer iterations.
  EXPECT_LT(anderson.fixed_point_iterations, damped.fixed_point_iterations);
}

TEST(JoinerTrajectoryTest, StartsAtJoinStateAndRisesTowardSteadyState) {
  // §6.5: the joiner starts at (dL, 0); indegree rises monotonically
  // toward the steady-state mean, outdegree stays within [dL, s].
  auto p = paper_params(0.01);
  const auto steady = solve_degree_mc(p);
  // The approach to veteran status is exponential with a time constant of
  // a few hundred rounds, so give it a long horizon.
  const auto traj = joiner_degree_trajectory(p, 1500);
  ASSERT_EQ(traj.expected_in.size(), 1501u);
  EXPECT_DOUBLE_EQ(traj.expected_in[0], 0.0);
  EXPECT_DOUBLE_EQ(traj.expected_out[0], 18.0);
  for (std::size_t r = 1; r < traj.expected_in.size(); ++r) {
    EXPECT_GE(traj.expected_in[r], traj.expected_in[r - 1] - 1e-9);
    EXPECT_GE(traj.expected_out[r], 18.0 - 1e-9);
    EXPECT_LE(traj.expected_out[r], 40.0 + 1e-9);
  }
  // The tail time constant is ~700 rounds; by 1500 rounds the residual
  // gap to the steady state is under 2 and still closing monotonically.
  EXPECT_NEAR(traj.expected_in.back(), steady.expected_in, 2.0);
  EXPECT_NEAR(traj.expected_out.back(), steady.expected_out, 2.0);
}

TEST(JoinerTrajectoryTest, ReachesPaperFloorWithinIntegrationWindow) {
  // Lemma 6.13 / Cor 6.14: within s^2/((1-l-d) dL) rounds the joiner
  // accumulates at least (dL/s)^2 * Din ~ 0.2 * Din in-instances.
  auto p = paper_params(0.01);
  const auto steady = solve_degree_mc(p);
  const auto traj = joiner_degree_trajectory(p, 100);
  const double floor = 0.2025 * steady.expected_in;
  EXPECT_GE(traj.expected_in[91], floor);
}

TEST(JoinerTrajectoryTest, Validation) {
  auto p = paper_params(0.0);
  p.min_degree = 0;
  EXPECT_THROW(joiner_degree_trajectory(p, 10), std::invalid_argument);
  p = DegreeMcParams{};
  p.view_size = 30;
  p.min_degree = 0;
  p.fixed_sum_degree = 30;
  EXPECT_THROW(joiner_degree_trajectory(p, 10), std::invalid_argument);
}

}  // namespace
}  // namespace gossip::analysis
