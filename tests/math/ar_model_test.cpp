#include "math/ar_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "math/autocorr.hpp"
#include "math/matrix.hpp"

namespace gm::math {
namespace {

std::vector<double> SimulateAr(const std::vector<double>& coeffs, double mean,
                               double noise_sigma, int n, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t k = coeffs.size();
  std::vector<double> x(static_cast<std::size_t>(n), mean);
  for (std::size_t t = k; t < x.size(); ++t) {
    double v = mean;
    for (std::size_t j = 0; j < k; ++j)
      v += coeffs[j] * (x[t - 1 - j] - mean);
    // Irwin-Hall approximate normal noise (12 uniforms).
    double e = 0.0;
    for (int u = 0; u < 12; ++u) e += rng.NextDouble();
    v += noise_sigma * (e - 6.0);
    x[t] = v;
  }
  return x;
}

TEST(LevinsonTest, MatchesDenseToeplitzSolve) {
  // Autocovariance sequence of an AR(2)-like process.
  const std::vector<double> acov{4.0, 2.4, 1.7, 1.1};
  const auto levinson = LevinsonDurbin(acov);
  ASSERT_TRUE(levinson.ok());

  // Dense reference: L(i,j) = acov(|i-j|), r_i = acov(i+1).
  const std::size_t k = acov.size() - 1;
  Matrix l(k, k);
  Vector r(k);
  for (std::size_t i = 0; i < k; ++i) {
    r[i] = acov[i + 1];
    for (std::size_t j = 0; j < k; ++j)
      l(i, j) = acov[static_cast<std::size_t>(
          std::abs(static_cast<int>(i) - static_cast<int>(j)))];
  }
  const auto dense = SolveLinear(l, r);
  ASSERT_TRUE(dense.ok());
  ASSERT_EQ(levinson->size(), dense->size());
  for (std::size_t i = 0; i < k; ++i)
    EXPECT_NEAR((*levinson)[i], (*dense)[i], 1e-10) << "coef " << i;
}

TEST(LevinsonTest, Order1KnownAnswer) {
  // AR(1): a1 = C(1)/C(0).
  const auto a = LevinsonDurbin({2.0, 1.0});
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a->size(), 1u);
  EXPECT_NEAR((*a)[0], 0.5, 1e-12);
}

TEST(LevinsonTest, ZeroVarianceFails) {
  EXPECT_FALSE(LevinsonDurbin({0.0, 0.0}).ok());
}

TEST(ArModelTest, RecoversAr1Coefficient) {
  const std::vector<double> truth{0.7};
  const auto series = SimulateAr(truth, 10.0, 0.5, 20000, 42);
  const auto model = ArModel::Fit(series, 1);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->coefficients()[0], 0.7, 0.03);
  EXPECT_NEAR(model->mean(), 10.0, 0.2);
  EXPECT_GT(model->noise_variance(), 0.0);
}

TEST(ArModelTest, RecoversAr2Coefficients) {
  const std::vector<double> truth{0.5, -0.3};
  const auto series = SimulateAr(truth, 0.0, 1.0, 50000, 17);
  const auto model = ArModel::Fit(series, 2);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->coefficients()[0], 0.5, 0.03);
  EXPECT_NEAR(model->coefficients()[1], -0.3, 0.03);
}

TEST(ArModelTest, PredictNextUsesRecentHistory) {
  const auto series = SimulateAr({0.9}, 5.0, 0.3, 5000, 3);
  const auto model = ArModel::Fit(series, 1);
  ASSERT_TRUE(model.ok());
  // Prediction from a point far above the mean reverts toward the mean.
  const double high = 20.0;
  const double pred = model->PredictNext({high});
  EXPECT_LT(pred, high);
  EXPECT_GT(pred, model->mean());
}

TEST(ArModelTest, ForecastConvergesToMean) {
  const auto series = SimulateAr({0.8}, 3.0, 0.2, 10000, 9);
  const auto model = ArModel::Fit(series, 1);
  ASSERT_TRUE(model.ok());
  const auto forecast = model->Forecast({10.0}, 100);
  ASSERT_EQ(forecast.size(), 100u);
  // Stable AR(1) forecasts decay geometrically to the mean.
  EXPECT_NEAR(forecast.back(), model->mean(), 0.05);
  for (std::size_t i = 1; i < forecast.size(); ++i) {
    EXPECT_LE(forecast[i], forecast[i - 1] + 1e-12);
  }
}

TEST(ArModelTest, ForecastEqualsIteratedPredictNextOverFullHistory) {
  // Forecast keeps only the last `order` values; iterating PredictNext
  // over the whole, growing history must give the same doubles.
  const auto series = SimulateAr({0.5, -0.3, 0.2}, 1.0, 0.3, 2000, 17);
  const auto model = ArModel::Fit(series, 3);
  ASSERT_TRUE(model.ok());
  std::vector<double> extended = series;
  std::vector<double> expected;
  for (int s = 0; s < 25; ++s) {
    expected.push_back(model->PredictNext(extended));
    extended.push_back(expected.back());
  }
  EXPECT_EQ(model->Forecast(series, 25), expected);
}

TEST(ArModelTest, ForecastZeroStepsIsEmpty) {
  const auto series = SimulateAr({0.5}, 0.0, 0.1, 1000, 1);
  const auto model = ArModel::Fit(series, 1);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(model->Forecast({0.0}, 0).empty());
}

TEST(ArModelTest, TooShortSeriesFails) {
  EXPECT_FALSE(ArModel::Fit({1.0, 2.0, 3.0}, 6).ok());
}

TEST(ArModelTest, ConstantSeriesFails) {
  const std::vector<double> series(100, 2.5);
  EXPECT_FALSE(ArModel::Fit(series, 2).ok());
}

TEST(ArModelTest, Ar6OnSinusoidPredictsWell) {
  // Nearly periodic series (tiny noise keeps the Yule-Walker system
  // positive definite): a rich AR model should track it closely.
  Rng rng(55);
  std::vector<double> series;
  for (int i = 0; i < 2000; ++i)
    series.push_back(5.0 + std::sin(i * 0.3) + 0.5 * std::cos(i * 0.7) +
                     rng.Uniform(-0.01, 0.01));
  const auto model = ArModel::Fit(series, 6);
  ASSERT_TRUE(model.ok());
  // One-step prediction should beat naive persistence (predict the previous
  // value) and stay well below the signal amplitude. Yule-Walker on nearly
  // noiseless sinusoids is ill-conditioned, so we don't demand perfection.
  double err = 0.0;
  double naive_err = 0.0;
  int count = 0;
  for (int t = 1000; t < 1500; ++t) {
    std::vector<double> history(series.begin(), series.begin() + t);
    const double pred = model->PredictNext(history);
    const double actual = series[static_cast<std::size_t>(t)];
    err += std::fabs(pred - actual);
    naive_err += std::fabs(history.back() - actual);
    ++count;
  }
  EXPECT_LT(err / count, 0.3);
  EXPECT_LT(err, naive_err);
}

}  // namespace
}  // namespace gm::math
