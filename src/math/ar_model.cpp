#include "math/ar_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "math/autocorr.hpp"
#include "math/stats.hpp"

namespace gm::math {

Result<std::vector<double>> LevinsonDurbin(const std::vector<double>& acov) {
  GM_ASSERT(acov.size() >= 2, "LevinsonDurbin: need at least lags 0 and 1");
  const std::size_t k = acov.size() - 1;
  if (acov[0] <= 0.0) {
    return Status::FailedPrecondition(
        "Levinson-Durbin: zero-variance series");
  }
  std::vector<double> a(k, 0.0);       // current coefficients a_1..a_m
  std::vector<double> a_prev(k, 0.0);  // previous iteration
  double error = acov[0];
  for (std::size_t m = 1; m <= k; ++m) {
    double acc = acov[m];
    for (std::size_t j = 1; j < m; ++j) acc -= a_prev[j - 1] * acov[m - j];
    if (error <= acov[0] * 1e-14) {
      // The series is (numerically) perfectly predictable at order m-1;
      // higher-order coefficients stay zero. This happens for noiseless
      // periodic signals and is a graceful lower-order fit, not an error.
      break;
    }
    const double kappa = acc / error;
    a[m - 1] = kappa;
    for (std::size_t j = 1; j < m; ++j)
      a[j - 1] = a_prev[j - 1] - kappa * a_prev[m - j - 1];
    error *= (1.0 - kappa * kappa);
    a_prev = a;
  }
  return a;
}

Result<ArModel> ArModel::Fit(const std::vector<double>& series, int order) {
  GM_ASSERT(order >= 1, "ArModel: order must be >= 1");
  if (series.size() < static_cast<std::size_t>(order) + 2) {
    return Status::InvalidArgument("ArModel: series too short for order");
  }
  const double mu = Mean(series);
  // Biased autocovariances: the resulting Yule-Walker system is positive
  // semi-definite, which guarantees a stationary (stable) AR model. The
  // unbiased estimator can produce explosive fits on smooth series.
  std::vector<double> acov(static_cast<std::size_t>(order) + 1);
  for (int lag = 0; lag <= order; ++lag)
    acov[static_cast<std::size_t>(lag)] = AutocovarianceBiased(series, lag);
  GM_ASSIGN_OR_RETURN(std::vector<double> coeffs, LevinsonDurbin(acov));

  // Innovation variance: sigma^2 = C(0) - sum a_j C(j).
  double noise = acov[0];
  for (int j = 1; j <= order; ++j)
    noise -= coeffs[static_cast<std::size_t>(j - 1)] *
             acov[static_cast<std::size_t>(j)];
  noise = std::max(noise, 0.0);
  return ArModel(std::move(coeffs), mu, noise);
}

double ArModel::PredictNext(const std::vector<double>& history) const {
  const std::size_t k = coefficients_.size();
  GM_ASSERT(history.size() >= k, "ArModel: history shorter than order");
  double x = mean_;
  for (std::size_t j = 0; j < k; ++j)
    x += coefficients_[j] * (history[history.size() - 1 - j] - mean_);
  return x;
}

std::vector<double> ArModel::Forecast(const std::vector<double>& history,
                                      int steps) const {
  GM_ASSERT(steps >= 0, "ArModel: negative forecast horizon");
  // PredictNext reads only the last `order` values, so that tail is all
  // the history the recursion needs.
  const auto tail = static_cast<std::ptrdiff_t>(
      std::min(history.size(), coefficients_.size()));
  std::vector<double> extended(history.end() - tail, history.end());
  extended.reserve(extended.size() + static_cast<std::size_t>(steps));
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(steps));
  for (int s = 0; s < steps; ++s) {
    const double next = PredictNext(extended);
    extended.push_back(next);
    out.push_back(next);
  }
  return out;
}

}  // namespace gm::math
