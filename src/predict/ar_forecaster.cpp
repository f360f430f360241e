#include "predict/ar_forecaster.hpp"

#include <cmath>

#include "math/spline.hpp"
#include "math/stats.hpp"

namespace gm::predict {

Result<ArPriceForecaster> ArPriceForecaster::Fit(
    const std::vector<double>& series, ArForecasterConfig config) {
  if (config.order < 1)
    return Status::InvalidArgument("AR order must be >= 1");
  if (config.spline_lambda < 0.0)
    return Status::InvalidArgument("spline lambda must be >= 0");
  std::vector<double> smoothed;
  if (config.spline_lambda > 0.0 && series.size() >= 3) {
    GM_ASSIGN_OR_RETURN(
        smoothed,
        math::SmoothingSpline::SmoothSeries(series, config.spline_lambda));
  } else {
    smoothed = series;
  }
  GM_ASSIGN_OR_RETURN(math::ArModel model,
                      math::ArModel::Fit(smoothed, config.order));
  return ArPriceForecaster(std::move(model), config, std::move(smoothed));
}

std::vector<double> ArPriceForecaster::Forecast(
    const std::vector<double>& recent, int steps) const {
  GM_ASSERT(recent.size() >= static_cast<std::size_t>(model_.order()),
            "forecast needs at least `order` recent samples");
  if (config_.spline_lambda > 0.0 && recent.size() >= 3) {
    const auto smoothed =
        math::SmoothingSpline::SmoothSeries(recent, config_.spline_lambda);
    if (smoothed.ok()) return model_.Forecast(*smoothed, steps);
  }
  return model_.Forecast(recent, steps);
}

double ArPriceForecaster::ForecastAt(const std::vector<double>& recent,
                                     int steps) const {
  GM_ASSERT(steps >= 1, "forecast horizon must be >= 1");
  return Forecast(recent, steps).back();
}

Result<double> PredictionEpsilon(const std::vector<double>& predictions,
                                 const std::vector<double>& measurements) {
  if (predictions.size() != measurements.size())
    return Status::InvalidArgument("epsilon: size mismatch");
  if (predictions.empty())
    return Status::InvalidArgument("epsilon: empty validation set");
  const double mu_d = math::Mean(measurements);
  if (mu_d == 0.0)
    return Status::FailedPrecondition("epsilon: zero mean measurement");
  double sum = 0.0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    // Standard deviation of the two-point sample {prediction, measurement}.
    sum += std::fabs(predictions[i] - measurements[i]) / std::sqrt(2.0);
  }
  return sum / (static_cast<double>(predictions.size()) * mu_d);
}

}  // namespace gm::predict
