#include <gtest/gtest.h>

#include <cmath>

#include "linalg/dense_matrix.h"
#include "linalg/lanczos.h"
#include "util/rng.h"

namespace dgc {
namespace {

TEST(DenseMatrixTest, RowAccess) {
  DenseMatrix m(2, 3, 0.0);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m.Row(1)[2], 5.0);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
}

TEST(JacobiEigenTest, DiagonalMatrix) {
  DenseMatrix m(3, 3, 0.0);
  m(0, 0) = 3.0;
  m(1, 1) = 1.0;
  m(2, 2) = 2.0;
  std::vector<Scalar> values;
  DenseMatrix vectors;
  JacobiEigenSymmetric(m, &values, &vectors);
  EXPECT_DOUBLE_EQ(values[0], 3.0);
  EXPECT_DOUBLE_EQ(values[1], 2.0);
  EXPECT_DOUBLE_EQ(values[2], 1.0);
}

TEST(JacobiEigenTest, KnownTwoByTwo) {
  // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
  DenseMatrix m(2, 2);
  m(0, 0) = 2.0;
  m(0, 1) = 1.0;
  m(1, 0) = 1.0;
  m(1, 1) = 2.0;
  std::vector<Scalar> values;
  DenseMatrix vectors;
  JacobiEigenSymmetric(m, &values, &vectors);
  EXPECT_NEAR(values[0], 3.0, 1e-12);
  EXPECT_NEAR(values[1], 1.0, 1e-12);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::abs(vectors(0, 0)), std::sqrt(0.5), 1e-10);
  EXPECT_NEAR(std::abs(vectors(1, 0)), std::sqrt(0.5), 1e-10);
}

TEST(JacobiEigenTest, ReconstructsRandomSymmetric) {
  Rng rng(11);
  const Index n = 12;
  DenseMatrix m(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = i; j < n; ++j) {
      const Scalar v = rng.UniformDouble() - 0.5;
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  std::vector<Scalar> values;
  DenseMatrix vectors;
  JacobiEigenSymmetric(m, &values, &vectors);
  // Check A v_j = lambda_j v_j for every pair.
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < n; ++i) {
      Scalar av = 0.0;
      for (Index k = 0; k < n; ++k) av += m(i, k) * vectors(k, j);
      EXPECT_NEAR(av, values[static_cast<size_t>(j)] * vectors(i, j), 1e-9);
    }
  }
  // Eigenvalues must be sorted descending.
  for (Index j = 1; j < n; ++j) {
    EXPECT_GE(values[static_cast<size_t>(j - 1)],
              values[static_cast<size_t>(j)]);
  }
}

TEST(JacobiEigenTest, VectorsAreOrthonormal) {
  Rng rng(13);
  const Index n = 8;
  DenseMatrix m(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = i; j < n; ++j) {
      const Scalar v = rng.UniformDouble();
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  std::vector<Scalar> values;
  DenseMatrix vectors;
  JacobiEigenSymmetric(m, &values, &vectors);
  for (Index a = 0; a < n; ++a) {
    for (Index b = 0; b < n; ++b) {
      Scalar dot = 0.0;
      for (Index i = 0; i < n; ++i) dot += vectors(i, a) * vectors(i, b);
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-9);
    }
  }
}

CsrMatrix PathLaplacianLike(Index n) {
  // Symmetric tridiagonal "mass-spring" matrix with known extremal spectrum.
  std::vector<Triplet> t;
  for (Index i = 0; i < n; ++i) {
    t.push_back(Triplet{i, i, 2.0});
    if (i + 1 < n) {
      t.push_back(Triplet{i, static_cast<Index>(i + 1), -1.0});
      t.push_back(Triplet{static_cast<Index>(i + 1), i, -1.0});
    }
  }
  return std::move(CsrMatrix::FromTriplets(n, n, t)).ValueOrDie();
}

TEST(LanczosTest, PathGraphExtremalEigenvalues) {
  const Index n = 50;
  CsrMatrix a = PathLaplacianLike(n);
  // Known spectrum: 2 - 2cos(pi k / (n+1)), k = 1..n.
  LanczosOptions options;
  options.num_eigenpairs = 3;
  auto result = LanczosSymmetric(a, options);
  ASSERT_TRUE(result.ok());
  auto lambda = [n](int k) {
    return 2.0 - 2.0 * std::cos(M_PI * k / (n + 1.0));
  };
  EXPECT_NEAR(result->eigenvalues[0], lambda(n), 1e-7);
  EXPECT_NEAR(result->eigenvalues[1], lambda(n - 1), 1e-7);
  EXPECT_NEAR(result->eigenvalues[2], lambda(n - 2), 1e-7);
}

TEST(LanczosTest, ResidualsAreSmall) {
  const Index n = 60;
  CsrMatrix a = PathLaplacianLike(n);
  LanczosOptions options;
  options.num_eigenpairs = 4;
  auto result = LanczosSymmetric(a, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->max_residual, 1e-5);
}

TEST(LanczosTest, IdentityGivesUnitEigenvalues) {
  CsrMatrix eye = CsrMatrix::Identity(10);
  LanczosOptions options;
  options.num_eigenpairs = 3;
  auto result = LanczosSymmetric(eye, options);
  ASSERT_TRUE(result.ok());
  for (Scalar v : result->eigenvalues) {
    EXPECT_NEAR(v, 1.0, 1e-10);
  }
}

TEST(LanczosTest, RejectsBadInput) {
  EXPECT_FALSE(LanczosSymmetric(CsrMatrix::Zero(2, 3)).ok());
  EXPECT_FALSE(LanczosSymmetric(CsrMatrix::Zero(0, 0)).ok());
  LanczosOptions bad;
  bad.num_eigenpairs = 0;
  EXPECT_FALSE(LanczosSymmetric(CsrMatrix::Identity(4), bad).ok());
}

}  // namespace
}  // namespace dgc
