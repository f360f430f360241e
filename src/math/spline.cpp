#include "math/spline.hpp"

#include <algorithm>
#include <cmath>

#include "math/tridiag.hpp"

namespace gm::math {
namespace {

Status CheckKnots(const std::vector<double>& x, const std::vector<double>& y,
                  std::size_t min_size) {
  if (x.size() != y.size())
    return Status::InvalidArgument("spline: x/y size mismatch");
  if (x.size() < min_size)
    return Status::InvalidArgument("spline: too few knots");
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (!(x[i] > x[i - 1]))
      return Status::InvalidArgument("spline: x must be strictly increasing");
  }
  return Status::Ok();
}

}  // namespace

Result<CubicSpline> CubicSpline::Interpolate(const std::vector<double>& x,
                                             const std::vector<double>& y) {
  GM_RETURN_IF_ERROR(CheckKnots(x, y, 2));
  const std::size_t n = x.size();
  std::vector<double> m(n, 0.0);
  if (n > 2) {
    // Natural spline: tridiagonal system for interior second derivatives.
    const std::size_t k = n - 2;
    std::vector<double> lower(k - 1), diag(k), upper(k - 1), rhs(k);
    for (std::size_t i = 0; i < k; ++i) {
      const double h0 = x[i + 1] - x[i];
      const double h1 = x[i + 2] - x[i + 1];
      diag[i] = (h0 + h1) / 3.0;
      if (i + 1 < k) upper[i] = h1 / 6.0;
      if (i > 0) lower[i - 1] = h0 / 6.0;
      rhs[i] = (y[i + 2] - y[i + 1]) / h1 - (y[i + 1] - y[i]) / h0;
    }
    GM_ASSIGN_OR_RETURN(std::vector<double> interior,
                        SolveTridiagonal(lower, diag, upper, rhs));
    for (std::size_t i = 0; i < k; ++i) m[i + 1] = interior[i];
  }
  return CubicSpline(x, y, std::move(m));
}

std::size_t CubicSpline::SegmentIndex(double t) const {
  // Find i such that x_[i] <= t < x_[i+1]; clamp outside range.
  if (t <= x_.front()) return 0;
  if (t >= x_.back()) return x_.size() - 2;
  const auto it = std::upper_bound(x_.begin(), x_.end(), t);
  return static_cast<std::size_t>(it - x_.begin()) - 1;
}

double CubicSpline::Evaluate(double t) const {
  if (x_.size() == 1) return y_[0];
  // Linear extrapolation outside the knot range using end slopes.
  if (t < x_.front()) return y_.front() + Derivative(x_.front()) * (t - x_.front());
  if (t > x_.back()) return y_.back() + Derivative(x_.back()) * (t - x_.back());

  const std::size_t i = SegmentIndex(t);
  const double h = x_[i + 1] - x_[i];
  const double a = (x_[i + 1] - t) / h;
  const double b = (t - x_[i]) / h;
  return a * y_[i] + b * y_[i + 1] +
         ((a * a * a - a) * m_[i] + (b * b * b - b) * m_[i + 1]) * h * h / 6.0;
}

double CubicSpline::Derivative(double t) const {
  if (x_.size() == 1) return 0.0;
  const double t_clamped = std::clamp(t, x_.front(), x_.back());
  const std::size_t i = SegmentIndex(t_clamped);
  const double h = x_[i + 1] - x_[i];
  const double a = (x_[i + 1] - t_clamped) / h;
  const double b = (t_clamped - x_[i]) / h;
  return (y_[i + 1] - y_[i]) / h -
         (3.0 * a * a - 1.0) * h * m_[i] / 6.0 +
         (3.0 * b * b - 1.0) * h * m_[i + 1] / 6.0;
}

namespace {

// The Reinsch core: solves (R + lambda Q^T Q) c = Q^T y and returns the
// fitted values g = y - lambda Q c. `spacing(i)` is h_i = x_{i+1} - x_i;
// the Q entries are recomputed from it where needed instead of stored,
// and the band is factored in place, so the working set is the band, c
// and g. Requires n >= 3 and lambda > 0.
template <typename Spacing>
Result<std::vector<double>> ReinschFittedValues(const std::vector<double>& y,
                                                double lambda,
                                                Spacing spacing) {
  const std::size_t n = y.size();
  // Column j of Q (j = 0..n-3, for interior knot j+1) has entries
  //   Q(j, j)   = 1/h_j
  //   Q(j+1, j) = -1/h_j - 1/h_{j+1}
  //   Q(j+2, j) = 1/h_{j+1}
  struct QColumn {
    double q0, q1, q2;
  };
  const auto q = [&spacing](std::size_t j) {
    const double h0 = spacing(j);
    const double h1 = spacing(j + 1);
    return QColumn{1.0 / h0, -1.0 / h0 - 1.0 / h1, 1.0 / h1};
  };

  // A = R + lambda * Q^T Q, a pentadiagonal SPD matrix of size n-2.
  const std::size_t k = n - 2;
  BandedSpd a(k, 2);
  for (std::size_t j = 0; j < k; ++j) {
    const QColumn qj = q(j);
    // R diagonal / superdiagonal.
    a.at(j, 0) = (spacing(j) + spacing(j + 1)) / 3.0;
    if (j + 1 < k) a.at(j, 1) = spacing(j + 1) / 6.0;
    // lambda * (Q^T Q): columns j and j+d overlap in rows.
    a.at(j, 0) += lambda * (qj.q0 * qj.q0 + qj.q1 * qj.q1 + qj.q2 * qj.q2);
    if (j + 1 < k) {
      const QColumn qn = q(j + 1);
      a.at(j, 1) += lambda * (qj.q1 * qn.q0 + qj.q2 * qn.q1);
    }
    if (j + 2 < k) a.at(j, 2) = lambda * qj.q2 * q(j + 2).q0;
  }
  GM_RETURN_IF_ERROR(a.FactorInPlace());

  // c solves A c = Q^T y.
  std::vector<double> c(k);
  for (std::size_t j = 0; j < k; ++j) {
    const QColumn qj = q(j);
    c[j] = qj.q0 * y[j] + qj.q1 * y[j + 1] + qj.q2 * y[j + 2];
  }
  a.SolveFactoredInPlace(c);

  // Fitted values g = y - lambda * Q c.
  std::vector<double> g = y;
  for (std::size_t j = 0; j < k; ++j) {
    const QColumn qj = q(j);
    g[j] -= lambda * qj.q0 * c[j];
    g[j + 1] -= lambda * qj.q1 * c[j];
    g[j + 2] -= lambda * qj.q2 * c[j];
  }
  return g;
}

}  // namespace

Result<SmoothingSpline> SmoothingSpline::Fit(const std::vector<double>& x,
                                             const std::vector<double>& y,
                                             double lambda) {
  GM_RETURN_IF_ERROR(CheckKnots(x, y, 3));
  if (lambda < 0.0)
    return Status::InvalidArgument("smoothing spline: negative lambda");

  if (lambda == 0.0) {
    GM_ASSIGN_OR_RETURN(CubicSpline interpolant, CubicSpline::Interpolate(x, y));
    return SmoothingSpline(std::move(interpolant), 0.0);
  }

  GM_ASSIGN_OR_RETURN(
      std::vector<double> g,
      ReinschFittedValues(y, lambda,
                          [&x](std::size_t i) { return x[i + 1] - x[i]; }));
  // The optimal smoother is the natural cubic spline through the fitted
  // values g, so interpolating g recovers it (including second derivatives).
  GM_ASSIGN_OR_RETURN(CubicSpline fitted_spline,
                      CubicSpline::Interpolate(x, g));
  return SmoothingSpline(std::move(fitted_spline), lambda);
}

Result<std::vector<double>> SmoothingSpline::SmoothSeries(
    const std::vector<double>& y, double lambda) {
  if (y.size() < 3) return Status::InvalidArgument("spline: too few knots");
  if (lambda < 0.0)
    return Status::InvalidArgument("smoothing spline: negative lambda");
  // The fitted values of Fit(0..n-1, y, lambda), without building the
  // spline: lambda = 0 interpolates y itself, and unit knots make every
  // spacing exactly 1.0 (the same double as (i + 1) - i).
  if (lambda == 0.0) return y;
  return ReinschFittedValues(y, lambda, [](std::size_t) { return 1.0; });
}

}  // namespace gm::math
