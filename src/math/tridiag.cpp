#include "math/tridiag.hpp"

#include <cmath>

namespace gm::math {

Result<std::vector<double>> SolveTridiagonal(const std::vector<double>& lower,
                                             const std::vector<double>& diag,
                                             const std::vector<double>& upper,
                                             const std::vector<double>& rhs) {
  const std::size_t n = diag.size();
  GM_ASSERT(rhs.size() == n, "SolveTridiagonal: rhs size mismatch");
  GM_ASSERT(n == 0 || (lower.size() == n - 1 && upper.size() == n - 1),
            "SolveTridiagonal: band size mismatch");
  if (n == 0) return std::vector<double>{};

  std::vector<double> c_prime(n, 0.0);
  std::vector<double> d_prime(n, 0.0);
  if (std::fabs(diag[0]) < 1e-300)
    return Status::FailedPrecondition("tridiagonal: zero pivot");
  c_prime[0] = n > 1 ? upper[0] / diag[0] : 0.0;
  d_prime[0] = rhs[0] / diag[0];
  for (std::size_t i = 1; i < n; ++i) {
    const double denom = diag[i] - lower[i - 1] * c_prime[i - 1];
    if (std::fabs(denom) < 1e-300)
      return Status::FailedPrecondition("tridiagonal: zero pivot");
    if (i < n - 1) c_prime[i] = upper[i] / denom;
    d_prime[i] = (rhs[i] - lower[i - 1] * d_prime[i - 1]) / denom;
  }
  std::vector<double> x(n);
  x[n - 1] = d_prime[n - 1];
  for (std::size_t ii = n - 1; ii-- > 0;)
    x[ii] = d_prime[ii] - c_prime[ii] * x[ii + 1];
  return x;
}

BandedSpd::BandedSpd(std::size_t n, std::size_t bandwidth)
    : n_(n), bandwidth_(bandwidth), band_(bandwidth + 1) {
  for (std::size_t k = 0; k <= bandwidth_; ++k)
    band_[k].assign(n_ > k ? n_ - k : 0, 0.0);
}

double& BandedSpd::at(std::size_t i, std::size_t k) {
  GM_ASSERT(k <= bandwidth_ && i + k < n_, "BandedSpd::at out of range");
  return band_[k][i];
}

double BandedSpd::at(std::size_t i, std::size_t k) const {
  GM_ASSERT(k <= bandwidth_ && i + k < n_, "BandedSpd::at out of range");
  return band_[k][i];
}

Result<std::vector<double>> BandedSpd::Solve(
    const std::vector<double>& rhs) const {
  GM_ASSERT(rhs.size() == n_, "BandedSpd::Solve size mismatch");
  BandedSpd factor = *this;
  GM_RETURN_IF_ERROR(factor.FactorInPlace());
  std::vector<double> x = rhs;
  factor.SolveFactoredInPlace(x);
  return x;
}

Status BandedSpd::FactorInPlace() {
  // Column j reads A(j, j..j+bandwidth) before overwriting it, and the
  // factor's columns p < j, which are already final.
  std::vector<std::vector<double>>& l = band_;
  for (std::size_t j = 0; j < n_; ++j) {
    double diag = l[0][j];
    const std::size_t lo = j > bandwidth_ ? j - bandwidth_ : 0;
    for (std::size_t p = lo; p < j; ++p) {
      const double ljp = l[j - p][p];
      diag -= ljp * ljp;
    }
    if (diag <= 0.0)
      return Status::FailedPrecondition("banded Cholesky: not SPD");
    const double ljj = std::sqrt(diag);
    l[0][j] = ljj;
    for (std::size_t k = 1; k <= bandwidth_ && j + k < n_; ++k) {
      const std::size_t i = j + k;
      double sum = l[k][j];  // A(j, j+k) == A(i, j)
      const std::size_t plo = i > bandwidth_ ? i - bandwidth_ : 0;
      for (std::size_t p = plo; p < j; ++p) sum -= l[i - p][p] * l[j - p][p];
      l[k][j] = sum / ljj;
    }
  }
  return Status::Ok();
}

void BandedSpd::SolveFactoredInPlace(std::vector<double>& b) const {
  GM_ASSERT(b.size() == n_, "BandedSpd::SolveFactoredInPlace size mismatch");
  const std::vector<std::vector<double>>& l = band_;
  // Forward substitution L y = b.
  for (std::size_t i = 0; i < n_; ++i) {
    double sum = b[i];
    const std::size_t lo = i > bandwidth_ ? i - bandwidth_ : 0;
    for (std::size_t j = lo; j < i; ++j) sum -= l[i - j][j] * b[j];
    b[i] = sum / l[0][i];
  }
  // Back substitution L^T x = y.
  for (std::size_t ii = n_; ii-- > 0;) {
    double sum = b[ii];
    for (std::size_t k = 1; k <= bandwidth_ && ii + k < n_; ++k)
      sum -= l[k][ii] * b[ii + k];
    b[ii] = sum / l[0][ii];
  }
}

std::vector<double> BandedSpd::Multiply(const std::vector<double>& x) const {
  GM_ASSERT(x.size() == n_, "BandedSpd::Multiply size mismatch");
  std::vector<double> y(n_, 0.0);
  for (std::size_t i = 0; i < n_; ++i) {
    y[i] += at(i, 0) * x[i];
    for (std::size_t k = 1; k <= bandwidth_ && i + k < n_; ++k) {
      y[i] += at(i, k) * x[i + k];
      y[i + k] += at(i, k) * x[i];
    }
  }
  return y;
}

}  // namespace gm::math
