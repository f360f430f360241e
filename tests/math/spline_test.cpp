#include "math/spline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.hpp"
#include "math/stats.hpp"

namespace gm::math {
namespace {

TEST(CubicSplineTest, PassesThroughKnots) {
  const std::vector<double> x{0.0, 1.0, 2.5, 4.0};
  const std::vector<double> y{1.0, 3.0, -2.0, 0.5};
  const auto s = CubicSpline::Interpolate(x, y);
  ASSERT_TRUE(s.ok());
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(s->Evaluate(x[i]), y[i], 1e-12);
}

TEST(CubicSplineTest, TwoPointsIsLinear) {
  const auto s = CubicSpline::Interpolate({0.0, 2.0}, {1.0, 5.0});
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s->Evaluate(1.0), 3.0, 1e-12);
  EXPECT_NEAR(s->Derivative(1.0), 2.0, 1e-12);
}

TEST(CubicSplineTest, ReproducesLinearFunctionExactly) {
  std::vector<double> x, y;
  for (int i = 0; i <= 10; ++i) {
    x.push_back(i * 0.5);
    y.push_back(2.0 * x.back() - 1.0);
  }
  const auto s = CubicSpline::Interpolate(x, y);
  ASSERT_TRUE(s.ok());
  for (double t = 0.0; t <= 5.0; t += 0.113)
    EXPECT_NEAR(s->Evaluate(t), 2.0 * t - 1.0, 1e-10);
}

TEST(CubicSplineTest, ApproximatesSmoothFunction) {
  std::vector<double> x, y;
  for (int i = 0; i <= 40; ++i) {
    x.push_back(i * 0.1);
    y.push_back(std::sin(x.back()));
  }
  const auto s = CubicSpline::Interpolate(x, y);
  ASSERT_TRUE(s.ok());
  // Natural boundary conditions cost accuracy near the ends; check the
  // interior tightly and the boundary region loosely.
  for (double t = 0.5; t < 3.5; t += 0.07)
    EXPECT_NEAR(s->Evaluate(t), std::sin(t), 1e-4);
  for (double t = 0.05; t < 0.5; t += 0.07)
    EXPECT_NEAR(s->Evaluate(t), std::sin(t), 5e-3);
}

TEST(CubicSplineTest, DerivativeApproximatesCosine) {
  std::vector<double> x, y;
  for (int i = 0; i <= 60; ++i) {
    x.push_back(i * 0.1);
    y.push_back(std::sin(x.back()));
  }
  const auto s = CubicSpline::Interpolate(x, y);
  ASSERT_TRUE(s.ok());
  for (double t = 0.5; t < 5.5; t += 0.17)
    EXPECT_NEAR(s->Derivative(t), std::cos(t), 1e-3);
}

TEST(CubicSplineTest, LinearExtrapolationOutsideRange) {
  const auto s = CubicSpline::Interpolate({0.0, 1.0, 2.0}, {0.0, 1.0, 2.0});
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s->Evaluate(-1.0), -1.0, 1e-10);
  EXPECT_NEAR(s->Evaluate(3.0), 3.0, 1e-10);
}

TEST(CubicSplineTest, RejectsBadInput) {
  EXPECT_FALSE(CubicSpline::Interpolate({0.0, 0.0}, {1.0, 2.0}).ok());
  EXPECT_FALSE(CubicSpline::Interpolate({1.0, 0.0}, {1.0, 2.0}).ok());
  EXPECT_FALSE(CubicSpline::Interpolate({0.0}, {1.0}).ok());
  EXPECT_FALSE(CubicSpline::Interpolate({0.0, 1.0}, {1.0}).ok());
}

TEST(SmoothingSplineTest, LambdaZeroInterpolates) {
  const std::vector<double> x{0.0, 1.0, 2.0, 3.0};
  const std::vector<double> y{0.0, 2.0, 1.0, 3.0};
  const auto s = SmoothingSpline::Fit(x, y, 0.0);
  ASSERT_TRUE(s.ok());
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(s->Evaluate(x[i]), y[i], 1e-10);
}

TEST(SmoothingSplineTest, LargeLambdaApproachesLeastSquaresLine) {
  // Noisy samples of y = 2x + 1.
  Rng rng(21);
  std::vector<double> x, y;
  for (int i = 0; i <= 30; ++i) {
    x.push_back(i * 0.2);
    y.push_back(2.0 * x.back() + 1.0 + rng.Uniform(-0.3, 0.3));
  }
  const auto s = SmoothingSpline::Fit(x, y, 1e9);
  ASSERT_TRUE(s.ok());
  // Compare against the closed-form least-squares line.
  const double mx = Mean(x);
  const double my = Mean(y);
  double sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxx += (x[i] - mx) * (x[i] - mx);
    sxy += (x[i] - mx) * (y[i] - my);
  }
  const double slope = sxy / sxx;
  const double intercept = my - slope * mx;
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(s->fitted()[i], slope * x[i] + intercept, 1e-3);
}

TEST(SmoothingSplineTest, IntermediateLambdaReducesNoiseVariance) {
  Rng rng(5);
  std::vector<double> x, y, truth;
  for (int i = 0; i <= 200; ++i) {
    x.push_back(i * 0.05);
    truth.push_back(std::sin(x.back()));
    y.push_back(truth.back() + rng.Uniform(-0.4, 0.4));
  }
  // The right lambda is scale dependent; a well-chosen value should at
  // least halve the squared error of the noisy samples.
  double err_raw = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    err_raw += (y[i] - truth[i]) * (y[i] - truth[i]);
  double best_err = err_raw;
  for (double lambda : {1e-4, 1e-3, 1e-2, 1e-1}) {
    const auto s = SmoothingSpline::Fit(x, y, lambda);
    ASSERT_TRUE(s.ok());
    double err_smooth = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
      err_smooth += (s->fitted()[i] - truth[i]) * (s->fitted()[i] - truth[i]);
    best_err = std::min(best_err, err_smooth);
  }
  EXPECT_LT(best_err, 0.5 * err_raw);
}

TEST(SmoothingSplineTest, MonotoneInLambda) {
  // Penalized roughness should decrease as lambda grows.
  Rng rng(13);
  std::vector<double> x, y;
  for (int i = 0; i <= 50; ++i) {
    x.push_back(static_cast<double>(i));
    y.push_back(rng.Uniform(0.0, 1.0));
  }
  auto roughness = [&](double lambda) {
    const auto s = SmoothingSpline::Fit(x, y, lambda);
    EXPECT_TRUE(s.ok());
    double sum = 0.0;
    const auto& f = s->fitted();
    for (std::size_t i = 2; i < f.size(); ++i) {
      const double second = f[i] - 2.0 * f[i - 1] + f[i - 2];
      sum += second * second;
    }
    return sum;
  };
  const double r0 = roughness(0.0);
  const double r1 = roughness(1.0);
  const double r2 = roughness(100.0);
  EXPECT_GT(r0, r1);
  EXPECT_GT(r1, r2);
}

TEST(SmoothingSplineTest, NegativeLambdaRejected) {
  EXPECT_FALSE(
      SmoothingSpline::Fit({0.0, 1.0, 2.0}, {0.0, 1.0, 0.0}, -1.0).ok());
}

TEST(SmoothingSplineTest, SmoothSeriesConvenience) {
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) y.push_back(i % 2 == 0 ? 1.0 : 0.0);
  const auto smoothed = SmoothingSpline::SmoothSeries(y, 50.0);
  ASSERT_TRUE(smoothed.ok());
  ASSERT_EQ(smoothed->size(), y.size());
  // Alternating series smooths toward 0.5.
  for (std::size_t i = 5; i + 5 < smoothed->size(); ++i)
    EXPECT_NEAR((*smoothed)[i], 0.5, 0.1);
}

TEST(SmoothingSplineTest, SmoothSeriesIsBitIdenticalToFit) {
  // SmoothSeries skips the spline; its values must still be exactly the
  // general fit's at unit knots, for any length, shape and lambda.
  Rng rng(20060619);
  const double lambdas[] = {0.0, 1e-3, 0.5, 3.0, 50.0, 1e4};
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t n = 3 + static_cast<std::size_t>(rng.UniformInt(0, 400));
    std::vector<double> y(n);
    double level = rng.Uniform(0.0, 10.0);
    for (double& v : y) {
      level += rng.Uniform(-1.0, 1.0);
      v = level + (rng.Bernoulli(0.1) ? rng.Uniform(-20.0, 0.0) : 0.0);
    }
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i);
    const double lambda = lambdas[trial % 6];
    const auto smoothed = SmoothingSpline::SmoothSeries(y, lambda);
    const auto fit = SmoothingSpline::Fit(x, y, lambda);
    ASSERT_TRUE(smoothed.ok());
    ASSERT_TRUE(fit.ok());
    ASSERT_EQ(smoothed->size(), fit->fitted().size());
    EXPECT_EQ(std::memcmp(smoothed->data(), fit->fitted().data(),
                          n * sizeof(double)),
              0)
        << "trial " << trial << ", n " << n << ", lambda " << lambda;
  }
}

TEST(SmoothingSplineTest, SmoothSeriesRejectsWhatFitRejects) {
  EXPECT_EQ(SmoothingSpline::SmoothSeries({1.0, 2.0}, 1.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      SmoothingSpline::SmoothSeries({1.0, 2.0, 3.0}, -1.0).status().code(),
      StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gm::math
