#include "analysis/thresholds.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace gossip::analysis {
namespace {

TEST(Thresholds, PaperExample) {
  // §6.3: "for d_hat = 30 and delta = 0.01, dL should be set to 18 and s
  // to 40". Under eq. (6.1) exactly, P(d >= 40) = 0.025 > delta while
  // P(d >= 42) = 0.0086 <= delta, so the strict rule lands on s = 42; the
  // paper's s = 40 sits right at the tail boundary of its (slightly
  // lighter-tailed) numeric distribution. We accept the boundary pair.
  const auto sel = select_thresholds(30, 0.01);
  EXPECT_EQ(sel.min_degree, 18u);
  EXPECT_GE(sel.view_size, 40u);
  EXPECT_LE(sel.view_size, 42u);
  EXPECT_LE(sel.prob_at_or_below_min, 0.01);
  EXPECT_LE(sel.prob_at_or_above_max, 0.01);
  EXPECT_DOUBLE_EQ(sel.expected_out, 30.0);
}

TEST(Thresholds, ProtocolConstraintsFeasible) {
  // The selected pair must satisfy the protocol's requirements: even, and
  // dL <= s - 6.
  for (const std::size_t d_hat : {10u, 20u, 30u, 50u}) {
    const auto sel = select_thresholds(d_hat, 0.01);
    EXPECT_EQ(sel.min_degree % 2, 0u);
    EXPECT_EQ(sel.view_size % 2, 0u);
    EXPECT_LE(sel.min_degree + 6, sel.view_size) << "d_hat=" << d_hat;
    EXPECT_LT(sel.min_degree, d_hat + 1);
    EXPECT_GE(sel.view_size, d_hat);
  }
}

TEST(Thresholds, TighterDeltaWidensTheBand) {
  const auto loose = select_thresholds(30, 0.05);
  const auto tight = select_thresholds(30, 0.001);
  EXPECT_GE(loose.min_degree, tight.min_degree);
  EXPECT_LE(loose.view_size, tight.view_size);
  EXPECT_LT(tight.min_degree, loose.view_size);
}

TEST(Thresholds, TailProbabilitiesAreTight) {
  // Choosing dL + 2 or s - 2 would violate delta (maximality/minimality).
  const auto sel = select_thresholds(30, 0.01);
  // The reported tail at dL is the tail at the *chosen* threshold; pushing
  // the threshold inward by one even step must overshoot delta.
  EXPECT_GT(sel.prob_at_or_below_min, 0.0);
  EXPECT_GT(sel.prob_at_or_above_max, 0.0);
}

TEST(Thresholds, InvalidArguments) {
  EXPECT_THROW((void)(select_thresholds(0, 0.01)), std::invalid_argument);
  EXPECT_THROW((void)(select_thresholds(31, 0.01)), std::invalid_argument);
  EXPECT_THROW((void)(select_thresholds(30, 0.0)), std::invalid_argument);
  EXPECT_THROW((void)(select_thresholds(30, 0.5)), std::invalid_argument);
}

TEST(Thresholds, VerySmallDeltaMayBeInfeasible) {
  // For tiny systems the tails cannot go below extreme deltas.
  EXPECT_THROW((void)(select_thresholds(2, 1e-12)), std::runtime_error);
}

TEST(Thresholds, ValidationUnderLossCertifiesPaperSelection) {
  // The §6.3 selection is made from the *no-loss* analytical distribution;
  // Lemma 6.7 claims it keeps duplication within [ℓ, ℓ+δ] for every loss
  // rate. Certify that against the full §6.2 chain.
  const double delta = 0.01;
  // The paper's operating point. (select_thresholds(30, 0.01) lands on
  // s = 42 under eq. (6.1) exactly — see PaperExample above — so pin the
  // published pair here; the certificate is about the pair, not about the
  // selector.)
  ThresholdSelection sel;
  sel.min_degree = 18;
  sel.view_size = 40;
  const std::vector<double> losses{0.0, 0.05};
  const auto checks = validate_thresholds_under_loss(sel, delta, losses);
  ASSERT_EQ(checks.size(), losses.size());
  for (std::size_t i = 0; i < checks.size(); ++i) {
    EXPECT_DOUBLE_EQ(checks[i].loss, losses[i]);
    EXPECT_TRUE(checks[i].within_bound) << "loss=" << losses[i];
    // Lemma 6.6: dup = ℓ + del holds tightly in the steady state.
    EXPECT_LT(checks[i].balance_gap, 1e-4) << "loss=" << losses[i];
    EXPECT_GE(checks[i].deletion_probability, 0.0);
  }
}

TEST(Thresholds, ValidationAtTheLossBoundary) {
  // ℓ + δ < 1 is the chain's validity region. Exactly at the boundary the
  // sweep must refuse; just inside it must still produce a solution (the
  // Lemma 6.7 band is long gone at such ℓ, but the chain itself is fine).
  ThresholdSelection sel;
  sel.min_degree = 18;
  sel.view_size = 40;
  const double delta = 0.01;
  const std::vector<double> at_boundary{0.99};  // ℓ + δ == 1
  EXPECT_THROW((void)validate_thresholds_under_loss(sel, delta, at_boundary),
               std::invalid_argument);
  const std::vector<double> inside{0.98};  // ℓ + δ = 0.99 < 1
  const auto checks = validate_thresholds_under_loss(sel, delta, inside);
  ASSERT_EQ(checks.size(), 1u);
  EXPECT_DOUBLE_EQ(checks[0].loss, 0.98);
  EXPECT_GE(checks[0].duplication_probability, 0.0);
  EXPECT_LE(checks[0].duplication_probability, 1.0);
  // Lemma 6.6 still balances even out here.
  EXPECT_LT(checks[0].balance_gap, 1e-3);
}

TEST(Thresholds, DegenerateMinDegreeEqualToViewSizeIsRejected) {
  // dL = s leaves no slack for the protocol's replacement moves; the §6.2
  // chain requires dL <= s - 6 and the validator must surface that rather
  // than silently solving a malformed chain.
  ThresholdSelection degenerate;
  degenerate.min_degree = 40;
  degenerate.view_size = 40;
  const std::vector<double> losses{0.05};
  EXPECT_THROW(
      (void)validate_thresholds_under_loss(degenerate, 0.01, losses),
      std::invalid_argument);
  // Just under the slack floor is equally malformed.
  degenerate.min_degree = 36;  // s - 4
  EXPECT_THROW(
      (void)validate_thresholds_under_loss(degenerate, 0.01, losses),
      std::invalid_argument);
  // The boundary itself (dL = s - 6) is a legal chain.
  degenerate.min_degree = 34;
  const auto checks =
      validate_thresholds_under_loss(degenerate, 0.01, losses);
  ASSERT_EQ(checks.size(), 1u);
  EXPECT_GE(checks[0].duplication_probability, 0.0);
}

TEST(Thresholds, SinglePointSweepMatchesTheMultiPointWarmStart) {
  // The validator warm-starts each loss point from the previous one. The
  // fixed point must not depend on that path: a single-ℓ sweep and the
  // matching entry of a multi-ℓ sweep agree to solver tolerance.
  ThresholdSelection sel;
  sel.min_degree = 18;
  sel.view_size = 40;
  const double delta = 0.01;
  const std::vector<double> multi{0.0, 0.02, 0.05, 0.10};
  const std::vector<double> single{0.05};
  const auto swept = validate_thresholds_under_loss(sel, delta, multi);
  const auto solo = validate_thresholds_under_loss(sel, delta, single);
  ASSERT_EQ(swept.size(), multi.size());
  ASSERT_EQ(solo.size(), 1u);
  const auto& warm = swept[2];
  EXPECT_NEAR(solo[0].duplication_probability, warm.duplication_probability,
              1e-9);
  EXPECT_NEAR(solo[0].deletion_probability, warm.deletion_probability, 1e-9);
  EXPECT_EQ(solo[0].within_bound, warm.within_bound);
}

TEST(Thresholds, ValidationUnderLossRejectsBadInput) {
  const auto sel = select_thresholds(30, 0.01);
  const std::vector<double> bad{0.995};  // ℓ + δ >= 1
  EXPECT_THROW((void)validate_thresholds_under_loss(sel, 0.01, bad),
               std::invalid_argument);
  ThresholdSelection broken;  // view_size = 0
  const std::vector<double> ok{0.0};
  EXPECT_THROW((void)validate_thresholds_under_loss(broken, 0.01, ok),
               std::invalid_argument);
}

}  // namespace
}  // namespace gossip::analysis
