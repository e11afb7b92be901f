#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/rng.h"
#include "tensor/matrix.h"

namespace nerglob {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_FLOAT_EQ(m.At(1, 2), 0.0f);
  m.At(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(m.At(1, 2), 5.0f);
}

TEST(MatrixTest, FromRowsAndRowVector) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_FLOAT_EQ(m.At(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(m.At(1, 0), 3.0f);
  Matrix v = Matrix::RowVector({7, 8, 9});
  EXPECT_EQ(v.rows(), 1u);
  EXPECT_FLOAT_EQ(v.At(0, 2), 9.0f);
}

TEST(MatrixTest, FillZeroScaleApply) {
  Matrix m(2, 2, 3.0f);
  m.Scale(2.0f);
  EXPECT_FLOAT_EQ(m.At(0, 0), 6.0f);
  m.Apply([](float x) { return x - 1.0f; });
  EXPECT_FLOAT_EQ(m.At(1, 1), 5.0f);
  m.Zero();
  EXPECT_FLOAT_EQ(m.Sum(), 0.0f);
}

TEST(MatrixTest, AddAxpy) {
  Matrix a = Matrix::FromRows({{1, 2}});
  Matrix b = Matrix::FromRows({{10, 20}});
  a.AddInPlace(b);
  EXPECT_FLOAT_EQ(a.At(0, 1), 22.0f);
  a.Axpy(0.5f, b);
  EXPECT_FLOAT_EQ(a.At(0, 0), 16.0f);
}

TEST(MatrixTest, MatMulCorrectness) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix b = Matrix::FromRows({{7, 8}, {9, 10}, {11, 12}});
  Matrix c = MatMul(a, b);
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_EQ(c.cols(), 2u);
  EXPECT_FLOAT_EQ(c.At(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.At(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.At(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 154.0f);
}

TEST(MatrixTest, MatMulTransVariantsAgreeWithExplicitTranspose) {
  Rng rng(1);
  Matrix a = Matrix::Randn(4, 3, 1.0f, &rng);
  Matrix b = Matrix::Randn(4, 5, 1.0f, &rng);
  Matrix viaT = MatMul(a.Transposed(), b);
  Matrix direct = MatMulTransA(a, b);
  for (size_t i = 0; i < viaT.size(); ++i) {
    EXPECT_NEAR(viaT.data()[i], direct.data()[i], 1e-4f);
  }
  Matrix c = Matrix::Randn(6, 3, 1.0f, &rng);
  Matrix d = Matrix::Randn(5, 3, 1.0f, &rng);
  Matrix viaT2 = MatMul(c, d.Transposed());
  Matrix direct2 = MatMulTransB(c, d);
  for (size_t i = 0; i < viaT2.size(); ++i) {
    EXPECT_NEAR(viaT2.data()[i], direct2.data()[i], 1e-4f);
  }
}

/// Naive reference: one double accumulator per output element, no tiling,
/// no skipping — the ground truth the blocked kernel must match.
Matrix ReferenceGemm(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (size_t p = 0; p < a.cols(); ++p) {
        acc += static_cast<double>(a.At(i, p)) * b.At(p, j);
      }
      out.At(i, j) = static_cast<float>(acc);
    }
  }
  return out;
}

TEST(MatrixTest, BlockedGemmMatchesReference) {
  Rng rng(11);
  // Shapes around the register-tile width (16): below, at, above, and the
  // transformer's (T, 64) x (64, 64) hot shape.
  const size_t shapes[][3] = {
      {1, 1, 1}, {3, 5, 7}, {16, 16, 16}, {17, 33, 19}, {48, 64, 64}};
  for (const auto& s : shapes) {
    Matrix a = Matrix::Randn(s[0], s[1], 1.0f, &rng);
    Matrix b = Matrix::Randn(s[1], s[2], 1.0f, &rng);
    Matrix got = MatMul(a, b);
    Matrix want = ReferenceGemm(a, b);
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got.data()[i], want.data()[i], 1e-5f * s[1])
          << "shape " << s[0] << "x" << s[1] << "x" << s[2] << " elem " << i;
    }
  }
}

TEST(MatrixTest, BlockedGemmHandlesZeroLadenInputs) {
  // The old kernel skipped a[i,p] == 0 entries; the blocked kernel dropped
  // that branch. Sparse inputs must still produce exact results.
  Rng rng(12);
  Matrix a = Matrix::Randn(9, 21, 1.0f, &rng);
  Matrix b = Matrix::Randn(21, 13, 1.0f, &rng);
  for (size_t i = 0; i < a.size(); ++i) {
    if (i % 3 != 0) a.data()[i] = 0.0f;
  }
  for (size_t i = 0; i < b.size(); ++i) {
    if (i % 4 == 0) b.data()[i] = 0.0f;
  }
  Matrix got = MatMul(a, b);
  Matrix want = ReferenceGemm(a, b);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], want.data()[i], 1e-5f * 21);
  }
  // All-zero left operand: exactly zero output.
  Matrix z(4, 21);
  Matrix zc = MatMul(z, b);
  for (size_t i = 0; i < zc.size(); ++i) EXPECT_EQ(zc.data()[i], 0.0f);
}

TEST(MatrixTest, MatMulTransAMatchesReference) {
  Rng rng(13);
  Matrix a = Matrix::Randn(23, 6, 1.0f, &rng);
  Matrix b = Matrix::Randn(23, 10, 1.0f, &rng);
  for (size_t i = 0; i < a.size(); ++i) {
    if (i % 5 == 0) a.data()[i] = 0.0f;  // exercise the dropped zero-skip
  }
  Matrix got = MatMulTransA(a, b);
  Matrix want = ReferenceGemm(a.Transposed(), b);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], want.data()[i], 1e-5f * 23);
  }
}

TEST(MatrixTest, MatMulAddBiasMatchesUnfusedPairExactly) {
  Rng rng(14);
  const size_t shapes[][3] = {{1, 8, 5}, {7, 16, 16}, {30, 64, 64}};
  for (const auto& s : shapes) {
    Matrix a = Matrix::Randn(s[0], s[1], 1.0f, &rng);
    Matrix b = Matrix::Randn(s[1], s[2], 1.0f, &rng);
    Matrix bias = Matrix::Randn(1, s[2], 1.0f, &rng);
    Matrix fused = MatMulAddBias(a, b, bias);
    Matrix unfused = AddRowBroadcast(MatMul(a, b), bias);
    // Bit-for-bit: the fused kernel adds the bias after the full k
    // accumulation, so the rounding sequence is identical.
    EXPECT_EQ(fused, unfused);
  }
}

TEST(MatrixTest, ElementwiseOps) {
  Matrix a = Matrix::FromRows({{1, 2}});
  Matrix b = Matrix::FromRows({{3, 5}});
  EXPECT_FLOAT_EQ(Mul(a, b).At(0, 1), 10.0f);
}

TEST(MatrixTest, AddRowBroadcast) {
  Matrix a = Matrix::FromRows({{1, 1}, {2, 2}});
  Matrix bias = Matrix::RowVector({10, 20});
  Matrix out = AddRowBroadcast(a, bias);
  EXPECT_FLOAT_EQ(out.At(0, 1), 21.0f);
  EXPECT_FLOAT_EQ(out.At(1, 0), 12.0f);
}

TEST(MatrixTest, SoftmaxRowsSumsToOne) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {-5, 0, 5}});
  Matrix s = SoftmaxRows(a);
  for (size_t r = 0; r < 2; ++r) {
    float total = 0;
    for (size_t c = 0; c < 3; ++c) total += s.At(r, c);
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
  EXPECT_GT(s.At(0, 2), s.At(0, 0));
}

TEST(MatrixTest, SoftmaxNumericallyStableForLargeLogits) {
  Matrix a = Matrix::FromRows({{1000, 1001}});
  Matrix s = SoftmaxRows(a);
  EXPECT_FALSE(std::isnan(s.At(0, 0)));
  EXPECT_NEAR(s.At(0, 0) + s.At(0, 1), 1.0f, 1e-5f);
}

TEST(MatrixTest, LogSoftmaxMatchesLogOfSoftmax) {
  Matrix a = Matrix::FromRows({{0.5, -1.0, 2.0}});
  Matrix ls = LogSoftmaxRows(a);
  Matrix s = SoftmaxRows(a);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(ls.At(0, c), std::log(s.At(0, c)), 1e-5f);
  }
}

TEST(MatrixTest, RowL2NormsAndCosine) {
  Matrix a = Matrix::FromRows({{3, 4}});
  EXPECT_FLOAT_EQ(RowL2Norms(a).At(0, 0), 5.0f);
  Matrix b = Matrix::FromRows({{6, 8}});
  EXPECT_NEAR(CosineSimilarity(a, b), 1.0f, 1e-5f);
  EXPECT_NEAR(CosineDistance(a, b), 0.0f, 1e-5f);
  Matrix c = Matrix::FromRows({{-4, 3}});
  EXPECT_NEAR(CosineSimilarity(a, c), 0.0f, 1e-5f);
}

TEST(MatrixTest, CosineOfZeroVectorIsZero) {
  Matrix a = Matrix::FromRows({{0, 0}});
  Matrix b = Matrix::FromRows({{1, 2}});
  EXPECT_FLOAT_EQ(CosineSimilarity(a, b), 0.0f);
}

TEST(MatrixTest, MeanRows) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix m = MeanRows(a);
  EXPECT_FLOAT_EQ(m.At(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(m.At(0, 1), 3.0f);
}

TEST(MatrixTest, SliceRows) {
  Matrix v = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  Matrix sl = v.SliceRows(1, 2);
  EXPECT_EQ(sl.rows(), 2u);
  EXPECT_FLOAT_EQ(sl.At(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(sl.At(1, 1), 6.0f);
}

TEST(MatrixTest, TransposedRoundTrip) {
  Rng rng(2);
  Matrix a = Matrix::Randn(3, 5, 1.0f, &rng);
  Matrix t = a.Transposed().Transposed();
  EXPECT_EQ(a, t);
}

TEST(MatrixTest, VecDot) {
  Matrix a = Matrix::RowVector({1, 2, 3});
  Matrix b = Matrix::RowVector({4, 5, 6});
  EXPECT_FLOAT_EQ(VecDot(a, b), 32.0f);
}

TEST(MatrixTest, SerializationRoundTrip) {
  Rng rng(3);
  Matrix a = Matrix::Randn(4, 7, 2.0f, &rng);
  std::stringstream ss;
  WriteMatrix(ss, a);
  Matrix b = ReadMatrix(ss);
  EXPECT_EQ(a, b);
}

TEST(MatrixTest, RandnStatistics) {
  Rng rng(4);
  Matrix m = Matrix::Randn(100, 100, 0.5f, &rng);
  double mean = m.Sum() / m.size();
  EXPECT_NEAR(mean, 0.0, 0.02);
  double var = 0;
  for (size_t i = 0; i < m.size(); ++i) var += m.data()[i] * m.data()[i];
  EXPECT_NEAR(var / m.size(), 0.25, 0.02);
}

TEST(MatrixTest, DebugStringMentionsShape) {
  Matrix m(2, 3);
  EXPECT_NE(m.DebugString().find("2x3"), std::string::npos);
}

}  // namespace
}  // namespace nerglob
