// Banded solvers for spline systems.
//
// The Reinsch smoothing spline reduces to a pentadiagonal symmetric positive
// definite system; natural-spline interpolation to a tridiagonal one. Both
// are solved in O(n) here instead of going through the dense LU path.
#pragma once

#include <vector>

#include "common/status.hpp"

namespace gm::math {

/// Solve a tridiagonal system with the Thomas algorithm.
/// lower[i] is the subdiagonal entry of row i+1 (size n-1),
/// diag has size n, upper[i] is the superdiagonal entry of row i (size n-1).
/// Fails on zero pivots (matrix not diagonally dominant enough).
Result<std::vector<double>> SolveTridiagonal(const std::vector<double>& lower,
                                             const std::vector<double>& diag,
                                             const std::vector<double>& upper,
                                             const std::vector<double>& rhs);

/// Symmetric banded matrix with half-bandwidth `bandwidth` stored by
/// diagonals: band[k][i] = A(i, i+k), k = 0..bandwidth.
class BandedSpd {
 public:
  BandedSpd(std::size_t n, std::size_t bandwidth);

  std::size_t size() const { return n_; }
  std::size_t bandwidth() const { return bandwidth_; }

  /// Access A(i, i+k) for k in [0, bandwidth]; i+k must be < n.
  double& at(std::size_t i, std::size_t k);
  double at(std::size_t i, std::size_t k) const;

  /// Banded Cholesky solve (A = L L^T) on a copy of the matrix. Fails if
  /// not positive definite.
  Result<std::vector<double>> Solve(const std::vector<double>& rhs) const;

  /// Overwrite the band with its Cholesky factor L, stored the same way:
  /// band[k][j] = L(j+k, j). Fails if not positive definite (the band is
  /// then partly overwritten).
  Status FactorInPlace();
  /// Solve L L^T x = b in place; requires FactorInPlace() first.
  void SolveFactoredInPlace(std::vector<double>& b) const;

  /// y = A*x using symmetry.
  std::vector<double> Multiply(const std::vector<double>& x) const;

 private:
  std::size_t n_;
  std::size_t bandwidth_;
  std::vector<std::vector<double>> band_;
};

}  // namespace gm::math
