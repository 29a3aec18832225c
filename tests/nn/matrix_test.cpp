#include "nn/matrix.hpp"

#include <gtest/gtest.h>

namespace nptsn {
namespace {

TEST(Matrix, ConstructionAndFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6);
  EXPECT_FALSE(m.empty());
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(m.at(i, j), 1.5);
  }
  m.fill(0.0);
  EXPECT_DOUBLE_EQ(m.sum(), 0.0);
}

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0);
}

TEST(Matrix, FromInitializerList) {
  const auto m = Matrix::from({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}});
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_DOUBLE_EQ(m.at(2, 1), 6.0);
}

TEST(Matrix, FromRejectsRaggedRows) {
  EXPECT_THROW(Matrix::from({{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, IndexBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), std::invalid_argument);
  EXPECT_THROW(m.at(0, -1), std::invalid_argument);
}

TEST(Matrix, SumAndMaxAbs) {
  const auto m = Matrix::from({{1.0, -4.0}, {2.0, 0.5}});
  EXPECT_DOUBLE_EQ(m.sum(), -0.5);
  EXPECT_DOUBLE_EQ(m.max_abs(), 4.0);
  EXPECT_DOUBLE_EQ(Matrix().max_abs(), 0.0);
}

TEST(Matrix, MatmulKnownResult) {
  const auto a = Matrix::from({{1.0, 2.0}, {3.0, 4.0}});
  const auto b = Matrix::from({{5.0, 6.0}, {7.0, 8.0}});
  const auto c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 50.0);
}

TEST(Matrix, MatmulRectangular) {
  const auto a = Matrix::from({{1.0, 0.0, 2.0}});         // 1x3
  const auto b = Matrix::from({{1.0}, {1.0}, {1.0}});     // 3x1
  const auto c = matmul(a, b);
  EXPECT_EQ(c.rows(), 1);
  EXPECT_EQ(c.cols(), 1);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 3.0);
}

TEST(Matrix, MatmulShapeChecked) {
  EXPECT_THROW(matmul(Matrix(2, 3), Matrix(2, 3)), std::invalid_argument);
}

TEST(Matrix, MatmulSparseSkipIsCorrect) {
  // The zero-skip fast path must not change results.
  const auto a = Matrix::from({{0.0, 2.0}, {0.0, 0.0}});
  const auto b = Matrix::from({{9.0, 9.0}, {1.0, 2.0}});
  const auto c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 0.0);
}

TEST(Matrix, Transpose) {
  const auto m = Matrix::from({{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}});
  const auto t = transpose(m);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_DOUBLE_EQ(t.at(2, 1), 6.0);
  EXPECT_DOUBLE_EQ(t.at(0, 0), 1.0);
}

TEST(Matrix, ElementwiseOps) {
  const auto a = Matrix::from({{1.0, 2.0}});
  const auto b = Matrix::from({{3.0, 5.0}});
  EXPECT_DOUBLE_EQ(add(a, b).at(0, 1), 7.0);
  EXPECT_DOUBLE_EQ(sub(a, b).at(0, 0), -2.0);
  EXPECT_DOUBLE_EQ(scale(a, 3.0).at(0, 1), 6.0);
  EXPECT_DOUBLE_EQ(hadamard(a, b).at(0, 1), 10.0);
}

TEST(Matrix, ElementwiseShapeChecked) {
  EXPECT_THROW(add(Matrix(1, 2), Matrix(2, 1)), std::invalid_argument);
  EXPECT_THROW(hadamard(Matrix(1, 2), Matrix(1, 3)), std::invalid_argument);
}

TEST(Matrix, AccumulateInPlace) {
  auto a = Matrix::from({{1.0, 1.0}});
  accumulate(a, Matrix::from({{2.0, 3.0}}));
  EXPECT_DOUBLE_EQ(a.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 4.0);
  EXPECT_THROW(accumulate(a, Matrix(2, 2)), std::invalid_argument);
}

}  // namespace
}  // namespace nptsn
