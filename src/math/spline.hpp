// Natural cubic splines: interpolation and Reinsch smoothing.
//
// The paper smooths raw price series with a "cubic smoothing spline" before
// fitting the AR model (Section 5.4) to suppress the sharp drops when batch
// jobs complete. We implement the classic Reinsch formulation: minimize
//   sum_i (y_i - f(x_i))^2 + lambda * integral f''(t)^2 dt
// over natural cubic splines. The optimum satisfies
//   (R + lambda Q^T Q) c = Q^T y,   g = y - lambda Q c,
// a pentadiagonal SPD system solved in O(n) with the banded Cholesky.
// lambda -> 0 interpolates the data; lambda -> inf tends to the
// least-squares straight line.
#pragma once

#include <vector>

#include "common/status.hpp"

namespace gm::math {

/// A natural cubic spline through knots (x_i, g_i) with second derivatives
/// m_i (m_0 = m_{n-1} = 0). Evaluation clamps to linear extrapolation from
/// the boundary segments' end slopes.
class CubicSpline {
 public:
  /// Interpolating natural cubic spline. x must be strictly increasing,
  /// sizes equal and >= 2.
  static Result<CubicSpline> Interpolate(const std::vector<double>& x,
                                         const std::vector<double>& y);

  double Evaluate(double t) const;
  double Derivative(double t) const;

  const std::vector<double>& knots() const { return x_; }
  const std::vector<double>& values() const { return y_; }
  const std::vector<double>& second_derivatives() const { return m_; }

 private:
  friend class SmoothingSpline;
  CubicSpline(std::vector<double> x, std::vector<double> y,
              std::vector<double> m)
      : x_(std::move(x)), y_(std::move(y)), m_(std::move(m)) {}
  std::size_t SegmentIndex(double t) const;

  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<double> m_;
};

class SmoothingSpline {
 public:
  /// Fit a Reinsch smoothing spline with penalty `lambda` >= 0.
  /// x must be strictly increasing; sizes equal and >= 3.
  static Result<SmoothingSpline> Fit(const std::vector<double>& x,
                                     const std::vector<double>& y,
                                     double lambda);

  double Evaluate(double t) const { return spline_.Evaluate(t); }

  /// Fitted (smoothed) values at the input knots.
  const std::vector<double>& fitted() const { return spline_.values(); }
  const CubicSpline& spline() const { return spline_; }
  double lambda() const { return lambda_; }

  /// Smooth a uniformly spaced series (x = 0..n-1): bit-identical to
  /// Fit(x, y, lambda).fitted(), without building the spline.
  static Result<std::vector<double>> SmoothSeries(
      const std::vector<double>& y, double lambda);

 private:
  SmoothingSpline(CubicSpline spline, double lambda)
      : spline_(std::move(spline)), lambda_(lambda) {}
  CubicSpline spline_;
  double lambda_;
};

}  // namespace gm::math
