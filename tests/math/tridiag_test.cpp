#include "math/tridiag.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "math/matrix.hpp"

namespace gm::math {
namespace {

TEST(TridiagonalTest, SolvesKnownSystem) {
  // [2 1 0][x0]   [4]
  // [1 2 1][x1] = [8]
  // [0 1 2][x2]   [8]
  const auto x = SolveTridiagonal({1.0, 1.0}, {2.0, 2.0, 2.0}, {1.0, 1.0},
                                  {4.0, 8.0, 8.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.0, 1e-12);
  EXPECT_NEAR((*x)[1], 2.0, 1e-12);
  EXPECT_NEAR((*x)[2], 3.0, 1e-12);
}

TEST(TridiagonalTest, SizeOneSystem) {
  const auto x = SolveTridiagonal({}, {4.0}, {}, {8.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 2.0, 1e-12);
}

TEST(TridiagonalTest, EmptySystem) {
  const auto x = SolveTridiagonal({}, {}, {}, {});
  ASSERT_TRUE(x.ok());
  EXPECT_TRUE(x->empty());
}

TEST(TridiagonalTest, ZeroPivotFails) {
  EXPECT_FALSE(SolveTridiagonal({}, {0.0}, {}, {1.0}).ok());
}

TEST(TridiagonalTest, MatchesDenseSolve) {
  Rng rng(3);
  const std::size_t n = 12;
  std::vector<double> lower(n - 1), diag(n), upper(n - 1), rhs(n);
  Matrix dense(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    diag[i] = rng.Uniform(4.0, 8.0);
    dense(i, i) = diag[i];
    rhs[i] = rng.Uniform(-3.0, 3.0);
    if (i + 1 < n) {
      lower[i] = rng.Uniform(-1.0, 1.0);
      upper[i] = rng.Uniform(-1.0, 1.0);
      dense(i + 1, i) = lower[i];
      dense(i, i + 1) = upper[i];
    }
  }
  const auto banded = SolveTridiagonal(lower, diag, upper, rhs);
  const auto reference = SolveLinear(dense, rhs);
  ASSERT_TRUE(banded.ok());
  ASSERT_TRUE(reference.ok());
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR((*banded)[i], (*reference)[i], 1e-10);
}

TEST(BandedSpdTest, AccessAndMultiply) {
  BandedSpd a(4, 1);
  for (std::size_t i = 0; i < 4; ++i) a.at(i, 0) = 2.0;
  for (std::size_t i = 0; i < 3; ++i) a.at(i, 1) = 1.0;
  const std::vector<double> y = a.Multiply({1.0, 1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 4.0);
  EXPECT_DOUBLE_EQ(y[2], 4.0);
  EXPECT_DOUBLE_EQ(y[3], 3.0);
}

TEST(BandedSpdTest, SolveTridiagonalCase) {
  BandedSpd a(3, 1);
  for (std::size_t i = 0; i < 3; ++i) a.at(i, 0) = 2.0;
  for (std::size_t i = 0; i < 2; ++i) a.at(i, 1) = 1.0;
  const auto x = a.Solve({4.0, 8.0, 8.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.0, 1e-12);
  EXPECT_NEAR((*x)[1], 2.0, 1e-12);
  EXPECT_NEAR((*x)[2], 3.0, 1e-12);
}

TEST(BandedSpdTest, PentadiagonalMatchesDense) {
  Rng rng(11);
  const std::size_t n = 15;
  BandedSpd a(n, 2);
  Matrix dense(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a.at(i, 0) = rng.Uniform(8.0, 12.0);
    dense(i, i) = a.at(i, 0);
    for (std::size_t k = 1; k <= 2 && i + k < n; ++k) {
      a.at(i, k) = rng.Uniform(-1.0, 1.0);
      dense(i, i + k) = a.at(i, k);
      dense(i + k, i) = a.at(i, k);
    }
  }
  std::vector<double> rhs(n);
  for (auto& v : rhs) v = rng.Uniform(-5.0, 5.0);
  const auto banded = a.Solve(rhs);
  const auto reference = SolveLinear(dense, rhs);
  ASSERT_TRUE(banded.ok());
  ASSERT_TRUE(reference.ok());
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR((*banded)[i], (*reference)[i], 1e-9);
}

TEST(BandedSpdTest, SolveVerifiedByMultiply) {
  BandedSpd a(5, 2);
  for (std::size_t i = 0; i < 5; ++i) a.at(i, 0) = 6.0;
  for (std::size_t i = 0; i < 4; ++i) a.at(i, 1) = -1.0;
  for (std::size_t i = 0; i < 3; ++i) a.at(i, 2) = 0.5;
  const std::vector<double> rhs{1.0, 2.0, 3.0, 4.0, 5.0};
  const auto x = a.Solve(rhs);
  ASSERT_TRUE(x.ok());
  const std::vector<double> back = a.Multiply(*x);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(back[i], rhs[i], 1e-11);
}

TEST(BandedSpdTest, FactorInPlaceThenSolveInPlace) {
  BandedSpd a(5, 2);
  for (std::size_t i = 0; i < 5; ++i) a.at(i, 0) = 6.0;
  for (std::size_t i = 0; i < 4; ++i) a.at(i, 1) = -1.0;
  for (std::size_t i = 0; i < 3; ++i) a.at(i, 2) = 0.5;
  const BandedSpd original = a;
  const std::vector<double> rhs{1.0, 2.0, 3.0, 4.0, 5.0};
  const auto copied = a.Solve(rhs);
  ASSERT_TRUE(copied.ok());
  // Solve leaves the matrix as it was.
  EXPECT_EQ(a.Multiply(rhs), original.Multiply(rhs));
  ASSERT_TRUE(a.FactorInPlace().ok());
  std::vector<double> x = rhs;
  a.SolveFactoredInPlace(x);
  EXPECT_EQ(x, *copied);
  const std::vector<double> back = original.Multiply(x);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(back[i], rhs[i], 1e-11);
}

TEST(BandedSpdTest, NotSpdFails) {
  BandedSpd a(2, 1);
  a.at(0, 0) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(0, 1) = 2.0;  // off-diagonal dominates -> indefinite
  EXPECT_FALSE(a.Solve({1.0, 1.0}).ok());
  EXPECT_FALSE(a.FactorInPlace().ok());
}

}  // namespace
}  // namespace gm::math
