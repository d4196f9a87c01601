#include "hermes/predictor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <span>
#include <vector>

namespace hermes::core {
namespace {

std::vector<double> constant_series(double v, int n) {
  return std::vector<double>(static_cast<std::size_t>(n), v);
}

std::vector<double> linear_series(double start, double slope, int n) {
  std::vector<double> out;
  for (int i = 0; i < n; ++i) out.push_back(start + slope * i);
  return out;
}

TEST(Ewma, EmptyHistoryPredictsZero) {
  EwmaPredictor p;
  EXPECT_EQ(p.predict({}), 0.0);
}

TEST(Ewma, ConstantSeriesPredictsConstant) {
  EwmaPredictor p(0.3);
  auto s = constant_series(42, 20);
  EXPECT_NEAR(p.predict(s), 42.0, 1e-9);
}

TEST(Ewma, LagsBehindTrend) {
  EwmaPredictor p(0.3);
  auto s = linear_series(0, 10, 20);  // ...170, 180, 190
  double pred = p.predict(s);
  EXPECT_LT(pred, 190.0);  // EWMA systematically under-predicts a ramp
  EXPECT_GT(pred, 100.0);
}

TEST(Ewma, AlphaOneTracksLastValue) {
  EwmaPredictor p(1.0);
  std::vector<double> s{5, 9, 1, 33};
  EXPECT_NEAR(p.predict(s), 33.0, 1e-9);
}

TEST(CubicSpline, EmptyAndTinyHistories) {
  CubicSplinePredictor p;
  EXPECT_EQ(p.predict({}), 0.0);
  std::vector<double> one{7};
  EXPECT_NEAR(p.predict(one), 7.0, 1e-9);
  std::vector<double> two{4, 6};
  EXPECT_NEAR(p.predict(two), 8.0, 1e-9);  // linear continuation
}

TEST(CubicSpline, ConstantSeriesPredictsConstant) {
  CubicSplinePredictor p;
  auto s = constant_series(13, 10);
  EXPECT_NEAR(p.predict(s), 13.0, 1e-6);
}

TEST(CubicSpline, ExtrapolatesLinearTrendExactly) {
  // A natural spline through collinear points is the straight line, so
  // extrapolation continues it exactly — splines track ramps that EWMA
  // lags on. That difference is why the paper found splines best (§8.6).
  CubicSplinePredictor p;
  auto s = linear_series(100, 25, 8);  // last = 275, next = 300
  EXPECT_NEAR(p.predict(s), 300.0, 1e-6);
}

TEST(CubicSpline, NeverReturnsNegative) {
  CubicSplinePredictor p;
  std::vector<double> s{100, 50, 10, 1};  // steep decay extrapolates < 0
  EXPECT_GE(p.predict(s), 0.0);
}

TEST(Arma, EmptyHistoryPredictsZero) {
  ArmaPredictor p;
  EXPECT_EQ(p.predict({}), 0.0);
}

TEST(Arma, ConstantSeriesPredictsConstant) {
  ArmaPredictor p;
  auto s = constant_series(21, 40);
  EXPECT_NEAR(p.predict(s), 21.0, 1e-6);
}

TEST(Arma, TracksAlternatingPattern) {
  // AR models shine on oscillations: a strict +A/-A alternation has
  // phi_1 = -1 and is perfectly predictable.
  ArmaPredictor p(3, 32);
  std::vector<double> s;
  for (int i = 0; i < 32; ++i) s.push_back(i % 2 == 0 ? 100.0 : 20.0);
  // Last value was s[31] (odd index -> 20), next should be near 100.
  EXPECT_NEAR(p.predict(s), 100.0, 15.0);
}

TEST(Arma, ShortHistoryFallsBackGracefully) {
  ArmaPredictor p(3, 32);
  std::vector<double> s{8};
  EXPECT_NEAR(p.predict(s), 8.0, 1e-9);
}

TEST(Correctors, SlackInflatesMultiplicatively) {
  SlackCorrector slack(0.4);
  EXPECT_NEAR(slack.correct(1000), 1400.0, 1e-9);  // the paper's example
  EXPECT_EQ(SlackCorrector(0).correct(55), 55);
}

TEST(Correctors, DeadzoneInflatesAdditively) {
  DeadzoneCorrector dz(100);
  EXPECT_NEAR(dz.correct(1000), 1100.0, 1e-9);  // the paper's example
}

TEST(GrowthEstimator, ObserveAndPredict) {
  GrowthEstimator est(std::make_unique<EwmaPredictor>(1.0),
                      std::make_unique<SlackCorrector>(0.5));
  est.observe(10);
  est.observe(20);
  EXPECT_NEAR(est.raw_prediction(), 20.0, 1e-9);
  EXPECT_NEAR(est.predicted_next(), 30.0, 1e-9);
}

TEST(GrowthEstimator, HistoryIsBounded) {
  GrowthEstimator est(std::make_unique<EwmaPredictor>(),
                      std::make_unique<SlackCorrector>(0.0),
                      /*max_history=*/4);
  for (int i = 0; i < 10; ++i) est.observe(i);
  EXPECT_EQ(est.history().size(), 4u);
  EXPECT_EQ(est.history()[0], 6.0);
}

TEST(GrowthEstimator, ResetClears) {
  GrowthEstimator est(std::make_unique<EwmaPredictor>(),
                      std::make_unique<DeadzoneCorrector>(5));
  est.observe(50);
  est.reset();
  EXPECT_TRUE(est.history().empty());
  EXPECT_NEAR(est.predicted_next(), 5.0, 1e-9);  // 0 + deadzone
}

TEST(Factories, KnownNamesResolve) {
  EXPECT_NE(make_predictor("EWMA"), nullptr);
  EXPECT_NE(make_predictor("CubicSpline"), nullptr);
  EXPECT_NE(make_predictor("ARMA"), nullptr);
  EXPECT_EQ(make_predictor("oracle"), nullptr);
  EXPECT_NE(make_corrector("Slack", 1.0), nullptr);
  EXPECT_NE(make_corrector("Deadzone", 10), nullptr);
  EXPECT_EQ(make_corrector("psychic", 0), nullptr);
}

// Section 8.6's qualitative claim: on trending workloads the spline's
// prediction error beats EWMA's.
TEST(PredictorComparison, SplineBeatsEwmaOnRamps) {
  CubicSplinePredictor spline;
  EwmaPredictor ewma(0.3);
  std::mt19937_64 rng(99);
  std::normal_distribution<double> noise(0, 3);
  double spline_err = 0, ewma_err = 0;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> s;
    double slope = 5 + static_cast<double>(trial % 7);
    for (int i = 0; i < 12; ++i) s.push_back(50 + slope * i + noise(rng));
    double truth = 50 + slope * 12;
    spline_err += std::abs(spline.predict(s) - truth);
    ewma_err += std::abs(ewma.predict(s) - truth);
  }
  EXPECT_LT(spline_err, ewma_err);
}

// Predictors must stay finite and non-negative on adversarial inputs.
class PredictorRobustness
    : public ::testing::TestWithParam<const char*> {};

TEST_P(PredictorRobustness, AdversarialInputsStaySane) {
  auto p = make_predictor(GetParam());
  ASSERT_NE(p, nullptr);
  std::mt19937_64 rng(5);
  std::vector<std::vector<double>> cases = {
      {},
      {0},
      {0, 0, 0, 0, 0, 0, 0, 0},
      {1e12, 0, 1e12, 0, 1e12},
      {1, 2, 4, 8, 16, 32, 64, 128, 256, 512},
  };
  std::vector<double> random_case;
  for (int i = 0; i < 100; ++i)
    random_case.push_back(static_cast<double>(rng() % 10000));
  cases.push_back(random_case);
  for (const auto& c : cases) {
    double v = p->predict(c);
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(All, PredictorRobustness,
                         ::testing::Values("EWMA", "CubicSpline", "ARMA"));

// The spline solver as written before it dropped its arrays: the full
// Thomas algorithm, then one step past the last knot.
double reference_spline(std::span<const double> history, std::size_t window) {
  if (history.empty()) return 0;
  auto clamp = [](double v) { return !std::isfinite(v) || v < 0 ? 0 : v; };
  if (history.size() == 1) return clamp(history[0]);
  std::size_t n = std::min(history.size(), window);
  std::span<const double> y = history.subspan(history.size() - n);
  if (n == 2) return clamp(y[1] + (y[1] - y[0]));
  std::vector<double> m(n, 0.0);
  std::size_t interior = n - 2;
  std::vector<double> diag(interior, 4.0);
  std::vector<double> rhs(interior);
  for (std::size_t i = 0; i < interior; ++i)
    rhs[i] = 6.0 * (y[i + 2] - 2 * y[i + 1] + y[i]);
  for (std::size_t i = 1; i < interior; ++i) {
    double w = 1.0 / diag[i - 1];
    diag[i] -= w;
    rhs[i] -= w * rhs[i - 1];
  }
  for (std::size_t i = interior; i-- > 0;) {
    double upper = (i + 1 < interior) ? m[i + 2] : 0.0;
    m[i + 1] = (rhs[i] - upper) / diag[i];
  }
  double y0 = y[n - 2], y1 = y[n - 1];
  double m0 = m[n - 2], m1 = m[n - 1];
  double t = 2.0;
  double omt = 1.0 - t;
  return clamp(y0 * omt + y1 * t +
               (m0 * (omt * omt * omt - omt) + m1 * (t * t * t - t)) / 6.0);
}

TEST(CubicSpline, MatchesFullTridiagonalSolve) {
  std::mt19937_64 rng(11);
  std::vector<double> series;
  for (int i = 0; i < 64; ++i) {
    // Counts, fractions and huge values (whose spline terms overflow).
    double v = i % 16 == 15 ? 1e307 * static_cast<double>(rng() % 9)
                            : static_cast<double>(rng() % 5000) / 7.0;
    series.push_back(v);
    for (int window : {3, 4, 8, 13}) {
      CubicSplinePredictor p(window);
      EXPECT_EQ(p.predict(series),
                reference_spline(series, static_cast<std::size_t>(window)))
          << "n " << series.size() << " window " << window;
    }
  }
}

// The estimator's bounded window and its memoized forecast against a
// fresh predictor run on a copy of the expected history.
class GrowthEstimatorWindow
    : public ::testing::TestWithParam<const char*> {};

TEST_P(GrowthEstimatorWindow, MatchesFreshPredictorAfterEveryObserve) {
  const std::size_t max_history = 24;
  GrowthEstimator est(make_predictor(GetParam()),
                      std::make_unique<SlackCorrector>(0.4), max_history);
  auto fresh = make_predictor(GetParam());
  SlackCorrector slack(0.4);
  std::mt19937_64 rng(17);
  std::vector<double> counts;
  for (std::size_t i = 0; i < 3 * max_history; ++i) {
    counts.push_back(static_cast<double>(1 + rng() % 400));
    est.observe(counts.back());
    const auto kept =
        static_cast<std::ptrdiff_t>(std::min(counts.size(), max_history));
    std::vector<double> expected(counts.end() - kept, counts.end());
    std::vector<double> got(est.history().begin(), est.history().end());
    ASSERT_EQ(got, expected) << "after " << counts.size() << " observes";
    const double forecast = fresh->predict(expected);
    EXPECT_EQ(est.raw_prediction(), forecast);
    EXPECT_EQ(est.predicted_next(), slack.correct(forecast));
    EXPECT_EQ(est.raw_prediction(), forecast);  // served from memory
  }
  ASSERT_GT(est.raw_prediction(), 0.0);
  est.reset();
  EXPECT_TRUE(est.history().empty());
  EXPECT_EQ(est.raw_prediction(), 0.0);
  EXPECT_EQ(est.predicted_next(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(All, GrowthEstimatorWindow,
                         ::testing::Values("EWMA", "CubicSpline", "ARMA"));

}  // namespace
}  // namespace hermes::core
