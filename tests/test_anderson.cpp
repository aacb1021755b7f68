#include "markov/anderson.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

namespace gossip::markov {
namespace {

// A linear fixed-point map G(x) = M x + b with spectral radius < 1.
// Anderson acceleration with enough history solves linear problems in
// (roughly) as many steps as there are distinct eigenvalues, far faster
// than the plain iteration's geometric crawl.
struct LinearMap {
  std::vector<double> diag;  // M is diagonal: easy spectrum control
  std::vector<double> b;

  [[nodiscard]] std::vector<double> apply(
      const std::vector<double>& x) const {
    std::vector<double> g(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) g[i] = diag[i] * x[i] + b[i];
    return g;
  }
  [[nodiscard]] std::vector<double> fixed_point() const {
    std::vector<double> star(diag.size());
    for (std::size_t i = 0; i < diag.size(); ++i) {
      star[i] = b[i] / (1.0 - diag[i]);
    }
    return star;
  }
};

TEST(AndersonMixer, AcceleratesLinearContraction) {
  const LinearMap map{{0.99, 0.9, 0.5, 0.1}, {0.01, 0.2, 1.0, 0.9}};
  std::vector<double> x(4, 0.0);

  AndersonMixer mixer(4);
  std::size_t iterations = 0;
  for (; iterations < 100; ++iterations) {
    const auto g = map.apply(x);
    std::vector<double> f(4);
    double res = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
      f[i] = g[i] - x[i];
      res += std::abs(f[i]);
    }
    if (res < 1e-12) break;
    mixer.push(x, f, res);
    std::vector<double> next;
    if (mixer.extrapolate(next)) {
      x = std::move(next);
    } else {
      x = g;  // plain fallback
    }
  }
  // The slowest mode contracts at 0.99/step: the plain iteration needs
  // ~2700 steps for 1e-12. Anderson gets there in a handful.
  EXPECT_LT(iterations, 30u);
  const auto star = map.fixed_point();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(x[i], star[i], 1e-9) << "i=" << i;
  }
}

TEST(AndersonMixer, ExtrapolationNeedsTwoSecantPairs) {
  AndersonMixer mixer(4);
  std::vector<double> next;
  EXPECT_FALSE(mixer.extrapolate(next));
  mixer.push({1.0, 0.0}, {0.1, -0.1}, 0.2);
  EXPECT_FALSE(mixer.extrapolate(next));
  mixer.push({1.1, -0.1}, {0.05, -0.05}, 0.1);
  // One secant pair: still in the cooldown window.
  EXPECT_FALSE(mixer.extrapolate(next));
  mixer.push({1.15, -0.15}, {0.02, -0.02}, 0.04);
  EXPECT_TRUE(mixer.extrapolate(next));
  EXPECT_EQ(next.size(), 2u);
}

TEST(AndersonMixer, ResetsHistoryOnResidualIncrease) {
  AndersonMixer mixer(4);
  mixer.push({1.0, 0.0}, {0.1, -0.1}, 0.2);
  mixer.push({1.1, -0.1}, {0.05, -0.05}, 0.1);
  mixer.push({1.15, -0.15}, {0.02, -0.02}, 0.04);
  EXPECT_EQ(mixer.pairs(), 3u);
  // Non-decreasing residual: stale history is discarded (only the new
  // point survives), so the next extrapolation cannot mix in pre-jump
  // iterates.
  mixer.push({1.2, -0.2}, {0.5, -0.5}, 1.0);
  EXPECT_EQ(mixer.pairs(), 1u);
  std::vector<double> next;
  EXPECT_FALSE(mixer.extrapolate(next));
}

TEST(AndersonMixer, ResetClearsState) {
  AndersonMixer mixer(2);
  mixer.push({1.0}, {0.1}, 0.1);
  mixer.push({1.1}, {0.05}, 0.05);
  mixer.reset();
  EXPECT_EQ(mixer.pairs(), 0u);
  // After reset an *increasing* residual push must not be compared against
  // the pre-reset history.
  mixer.push({1.0}, {0.2}, 0.2);
  EXPECT_EQ(mixer.pairs(), 1u);
}

TEST(ProjectToSimplex, ClipsAndNormalizes) {
  std::vector<double> v{0.5, -0.1, 0.7};
  ASSERT_TRUE(project_to_simplex(v));
  EXPECT_DOUBLE_EQ(v[1], 0.0);
  double total = 0.0;
  for (const double x : v) total += x;
  EXPECT_NEAR(total, 1.0, 1e-15);
  EXPECT_NEAR(v[0] / v[2], 0.5 / 0.7, 1e-12);
}

TEST(ProjectToSimplex, RejectsDegenerateMass) {
  std::vector<double> v{-1.0, -2.0, 0.0};
  EXPECT_FALSE(project_to_simplex(v));
  std::vector<double> ok{0.25, 0.75};
  EXPECT_TRUE(project_to_simplex(ok));
  EXPECT_DOUBLE_EQ(ok[0], 0.25);
  EXPECT_DOUBLE_EQ(ok[1], 0.75);
}

}  // namespace
}  // namespace gossip::markov
