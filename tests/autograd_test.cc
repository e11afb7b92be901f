#include <gtest/gtest.h>

#include <cmath>

#include "autograd/gradient_check.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/rng.h"

namespace nerglob::ag {
namespace {

Var Param(size_t r, size_t c, uint64_t seed) {
  Rng rng(seed);
  return Var(Matrix::Randn(r, c, 0.5f, &rng), /*requires_grad=*/true);
}

constexpr float kTol = 2e-2f;  // fp32 finite differences are coarse

TEST(VariableTest, LeafProperties) {
  Var v(Matrix::FromRows({{1, 2}}), true);
  EXPECT_TRUE(v.defined());
  EXPECT_TRUE(v.requires_grad());
  EXPECT_EQ(v.rows(), 1u);
  EXPECT_EQ(v.cols(), 2u);
  Var undef;
  EXPECT_FALSE(undef.defined());
}

TEST(VariableTest, SimpleChainBackward) {
  Var x(Matrix::FromRows({{2.0}}), true);
  Var y = ScalarMul(x, 3.0f);  // y = 3x
  Var loss = MeanAll(y);
  loss.Backward();
  EXPECT_FLOAT_EQ(x.grad().At(0, 0), 3.0f);
}

TEST(VariableTest, GradAccumulatesAcrossBackwardCalls) {
  Var x(Matrix::FromRows({{1.0}}), true);
  for (int i = 0; i < 2; ++i) {
    Var loss = MeanAll(ScalarMul(x, 2.0f));
    loss.Backward();
  }
  EXPECT_FLOAT_EQ(x.grad().At(0, 0), 4.0f);
  x.ZeroGrad();
  EXPECT_EQ(x.grad().size(), 0u);
}

TEST(VariableTest, SharedSubexpressionGetsSummedGradient) {
  Var x(Matrix::FromRows({{3.0}}), true);
  Var y = Add(x, x);  // dy/dx = 2
  Var loss = MeanAll(y);
  loss.Backward();
  EXPECT_FLOAT_EQ(x.grad().At(0, 0), 2.0f);
}

TEST(OpsGradTest, MatMulBothSides) {
  Var a = Param(3, 4, 1);
  Var b = Param(4, 2, 2);
  auto loss = [&] { return MeanAll(MatMul(a, b)); };
  EXPECT_LT(MaxGradientError(loss, a), kTol);
  EXPECT_LT(MaxGradientError(loss, b), kTol);
}

TEST(OpsGradTest, LinearForwardAllThreeInputs) {
  Var x = Param(3, 4, 21);
  Var w = Param(4, 5, 22);
  Var b = Param(1, 5, 23);
  auto loss = [&] { return MeanAll(LinearForward(x, w, b)); };
  EXPECT_LT(MaxGradientError(loss, x), kTol);
  EXPECT_LT(MaxGradientError(loss, w), kTol);
  EXPECT_LT(MaxGradientError(loss, b), kTol);
}

TEST(OpsGradTest, LinearForwardMatchesUnfusedPair) {
  Var x = Param(6, 8, 24);
  Var w = Param(8, 3, 25);
  Var b = Param(1, 3, 26);
  Var fused = LinearForward(x, w, b);
  Var unfused = AddRowBroadcast(MatMul(x, w), b);
  EXPECT_EQ(fused.value(), unfused.value());

  // Gradients must match bit-for-bit too (same backward decomposition).
  MeanAll(fused).Backward();
  Matrix gx = x.grad(), gw = w.grad(), gb = b.grad();
  x.ZeroGrad();
  w.ZeroGrad();
  b.ZeroGrad();
  MeanAll(unfused).Backward();
  EXPECT_EQ(gx, x.grad());
  EXPECT_EQ(gw, w.grad());
  EXPECT_EQ(gb, b.grad());
}

TEST(OpsGradTest, AddSubMul) {
  Var a = Param(2, 3, 3);
  Var b = Param(2, 3, 4);
  EXPECT_LT(MaxGradientError([&] { return MeanAll(Add(a, b)); }, a), kTol);
  EXPECT_LT(MaxGradientError([&] { return MeanAll(Sub(a, b)); }, b), kTol);
  EXPECT_LT(MaxGradientError([&] { return MeanAll(Mul(a, b)); }, a), kTol);
  EXPECT_LT(MaxGradientError([&] { return MeanAll(Mul(a, b)); }, b), kTol);
}

TEST(OpsGradTest, AddRowBroadcast) {
  Var a = Param(3, 4, 5);
  Var bias = Param(1, 4, 6);
  auto loss = [&] { return MeanAll(AddRowBroadcast(a, bias)); };
  EXPECT_LT(MaxGradientError(loss, a), kTol);
  EXPECT_LT(MaxGradientError(loss, bias), kTol);
}

TEST(OpsGradTest, MulColBroadcast) {
  Var a = Param(3, 4, 7);
  Var s = Param(3, 1, 8);
  auto loss = [&] { return MeanAll(MulColBroadcast(a, s)); };
  EXPECT_LT(MaxGradientError(loss, a), kTol);
  EXPECT_LT(MaxGradientError(loss, s), kTol);
}

TEST(OpsGradTest, ScalarOpsAndNeg) {
  Var a = Param(2, 2, 9);
  EXPECT_LT(MaxGradientError([&] { return MeanAll(ScalarMul(a, -1.7f)); }, a), kTol);
  EXPECT_LT(MaxGradientError([&] { return MeanAll(AddScalar(a, 2.0f)); }, a), kTol);
  EXPECT_LT(MaxGradientError([&] { return MeanAll(Neg(a)); }, a), kTol);
}

TEST(OpsGradTest, Activations) {
  Var a = Param(2, 3, 10);
  EXPECT_LT(MaxGradientError([&] { return MeanAll(Tanh(a)); }, a), kTol);
  EXPECT_LT(MaxGradientError([&] { return MeanAll(Sigmoid(a)); }, a), kTol);
  EXPECT_LT(MaxGradientError([&] { return MeanAll(Exp(a)); }, a), kTol);
  // Relu is kinked; shift away from zero to keep finite differences clean.
  Var pos(Matrix::FromRows({{0.5, 1.5, -2.0}}), true);
  EXPECT_LT(MaxGradientError([&] { return MeanAll(Relu(pos)); }, pos), kTol);
}

TEST(OpsGradTest, LogWithEps) {
  Var a(Matrix::FromRows({{0.5, 1.0, 2.0}}), true);
  EXPECT_LT(MaxGradientError([&] { return MeanAll(Log(a, 0.1f)); }, a), kTol);
}

TEST(OpsGradTest, TransposeAndSlices) {
  Var a = Param(3, 4, 11);
  EXPECT_LT(MaxGradientError([&] { return MeanAll(Transpose(a)); }, a), kTol);
  EXPECT_LT(MaxGradientError([&] { return MeanAll(SliceRows(a, 1, 2)); }, a), kTol);
  EXPECT_LT(MaxGradientError([&] { return MeanAll(SliceCols(a, 1, 2)); }, a), kTol);
}

TEST(OpsGradTest, SoftmaxAndLogSoftmax) {
  Var a = Param(2, 4, 12);
  Var w = Constant(Matrix::FromRows({{0.3f, -0.2f, 0.5f, 0.1f},
                                     {0.9f, 0.4f, -0.6f, 0.2f}}));
  EXPECT_LT(MaxGradientError([&] { return MeanAll(Mul(SoftmaxRows(a), w)); }, a), kTol);
  EXPECT_LT(MaxGradientError([&] { return MeanAll(Mul(LogSoftmaxRows(a), w)); }, a), kTol);
}

TEST(OpsGradTest, Reductions) {
  Var a = Param(3, 4, 13);
  EXPECT_LT(MaxGradientError([&] { return MeanAll(MeanRows(a)); }, a), kTol);
  EXPECT_LT(MaxGradientError([&] { return MeanAll(RowSum(a)); }, a), kTol);
  EXPECT_LT(MaxGradientError([&] { return SumAll(a); }, a), kTol);
  EXPECT_LT(MaxGradientError([&] { return MeanAll(a); }, a), kTol);
}

TEST(OpsGradTest, Concats) {
  Var a = Param(2, 3, 14);
  Var b = Param(2, 3, 15);
  auto loss_rows = [&] { return MeanAll(ConcatRows({a, b})); };
  EXPECT_LT(MaxGradientError(loss_rows, a), kTol);
  EXPECT_LT(MaxGradientError(loss_rows, b), kTol);
  auto loss_cols = [&] { return MeanAll(ConcatCols({a, b})); };
  EXPECT_LT(MaxGradientError(loss_cols, a), kTol);
  EXPECT_LT(MaxGradientError(loss_cols, b), kTol);
}

TEST(OpsGradTest, GatherRows) {
  Var table = Param(5, 3, 16);
  std::vector<int> idx = {4, 0, 0, 2};
  auto loss = [&] { return MeanAll(GatherRows(table, idx)); };
  EXPECT_LT(MaxGradientError(loss, table), kTol);
}

// Upstream gradient weights with exact +0 and -0 entries, so the tests
// below also pin the sign of zero in the accumulated gradients.
Var SignedZeroWeights(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix w = Matrix::Randn(rows, cols, 1.0f, &rng);
  w.At(0, 0) = -0.0f;
  w.At(rows - 1, cols - 1) = 0.0f;
  return Constant(std::move(w));
}

TEST(OpsGradTest, GatherRowsBackwardMatchesDenseScatterBitForBit) {
  Var table = Param(5, 3, 16);
  const std::vector<int> idx = {3, 1, 3, 3, 0};
  Var w = SignedZeroWeights(idx.size(), 3, 40);
  for (int pass = 0; pass < 2; ++pass) {  // the second pass accumulates
    MeanAll(Mul(GatherRows(table, idx), w)).Backward();
  }
  // The gradient a dense (rows x cols) scatter added whole, twice.
  const float scale = 1.0f / static_cast<float>(idx.size() * 3);
  Matrix dx(5, 3);
  for (size_t i = 0; i < idx.size(); ++i) {
    for (size_t c = 0; c < 3; ++c) {
      const float g = 0.0f + (0.0f + scale) * w.value().At(i, c);
      dx.At(static_cast<size_t>(idx[i]), c) += 0.0f + g;
    }
  }
  Matrix want(5, 3);
  want.AddInPlace(dx);
  want.AddInPlace(dx);
  EXPECT_EQ(table.grad(), want);
}

TEST(OpsGradTest, GatherMeanRowsMatchesPerBagTapeBitForBit) {
  // Bags with repeated ids inside and across bags.
  const std::vector<int> ids = {4, 0, 4, 2, 0, 0, 4, 1};
  const std::vector<size_t> bag_ends = {3, 4, 7, 8};
  Var w = SignedZeroWeights(bag_ends.size(), 3, 41);
  Var fused = Param(5, 3, 42);
  Var per_bag = Param(5, 3, 42);
  for (int pass = 0; pass < 2; ++pass) {  // the second pass accumulates
    Var y = GatherMeanRows(fused, ids, bag_ends);
    std::vector<Var> rows;
    for (size_t t = 0, begin = 0; t < bag_ends.size(); begin = bag_ends[t++]) {
      const std::vector<int> bag(ids.begin() + begin, ids.begin() + bag_ends[t]);
      rows.push_back(MeanRows(GatherRows(per_bag, bag)));
    }
    Var want = ConcatRows(rows);
    EXPECT_EQ(y.value(), want.value());
    MeanAll(Mul(y, w)).Backward();
    MeanAll(Mul(want, w)).Backward();
  }
  EXPECT_EQ(fused.grad(), per_bag.grad());
  EXPECT_LT(MaxGradientError(
                [&] { return MeanAll(Mul(GatherMeanRows(fused, ids, bag_ends), w)); },
                fused),
            kTol);
}

TEST(NoGradScopeTest, OpsComputeTheTapeValueAndBuildNothing) {
  Var a = Param(4, 3, 43);
  Var b = Param(3, 2, 44);
  auto forward = [&] { return SoftmaxRows(Relu(MatMul(a, b))); };
  const Matrix tape = forward().value();
  common::ScratchArena arena;
  {
    NoGradScope outer(&arena);
    Var y = forward();
    EXPECT_EQ(y.node(), nullptr);
    EXPECT_FALSE(y.requires_grad());
    EXPECT_EQ(y.value(), tape);
    {
      NoGradScope inner(&arena);
      EXPECT_EQ(NoGradScope::Current(), &inner);
      EXPECT_EQ(forward().value(), tape);
    }
    EXPECT_EQ(NoGradScope::Current(), &outer);
    EXPECT_EQ(arena.depth(), 3u);  // the inner scope released its slots
  }
  EXPECT_EQ(NoGradScope::Current(), nullptr);
  EXPECT_EQ(arena.depth(), 0u);
  EXPECT_NE(forward().node(), nullptr);  // back on the tape
}

TEST(OpsGradTest, MaxOverRows) {
  // Values separated enough that argmax is stable under +-eps.
  Var a(Matrix::FromRows({{1.0, 9.0}, {5.0, 2.0}, {-3.0, 4.0}}), true);
  auto loss = [&] { return MeanAll(MaxOverRows(a)); };
  EXPECT_LT(MaxGradientError(loss, a), kTol);
}

TEST(OpsGradTest, L2NormalizeRows) {
  Var a = Param(2, 4, 17);
  Var w = Constant(Matrix::FromRows({{0.5f, -0.3f, 0.8f, 0.1f},
                                     {-0.2f, 0.7f, 0.4f, -0.9f}}));
  auto loss = [&] { return MeanAll(Mul(L2NormalizeRows(a), w)); };
  EXPECT_LT(MaxGradientError(loss, a), kTol);
}

TEST(OpsGradTest, L2NormalizeProducesUnitRows) {
  Var a = Param(3, 5, 18);
  Var n = L2NormalizeRows(a);
  Matrix norms = RowL2Norms(n.value());
  for (size_t r = 0; r < 3; ++r) EXPECT_NEAR(norms.At(r, 0), 1.0f, 1e-4f);
}

TEST(OpsGradTest, LayerNorm) {
  Var a = Param(2, 4, 19);
  Var gamma(Matrix::RowVector({1.1f, 0.9f, 1.2f, 0.8f}), true);
  Var beta(Matrix::RowVector({0.1f, -0.1f, 0.0f, 0.2f}), true);
  Var w = Constant(Matrix::FromRows({{0.5f, -0.3f, 0.8f, 0.1f},
                                     {-0.2f, 0.7f, 0.4f, -0.9f}}));
  auto loss = [&] { return MeanAll(Mul(LayerNormRows(a, gamma, beta), w)); };
  EXPECT_LT(MaxGradientError(loss, a), kTol);
  EXPECT_LT(MaxGradientError(loss, gamma), kTol);
  EXPECT_LT(MaxGradientError(loss, beta), kTol);
}

TEST(OpsGradTest, CrossEntropyWithLogits) {
  Var logits = Param(4, 3, 20);
  std::vector<int> targets = {0, 2, 1, 2};
  auto loss = [&] { return CrossEntropyWithLogits(logits, targets); };
  EXPECT_LT(MaxGradientError(loss, logits), kTol);
  // Value sanity: uniform logits -> log(3).
  Var uniform(Matrix(2, 3), true);
  Var l = CrossEntropyWithLogits(uniform, {0, 1});
  EXPECT_NEAR(l.value().At(0, 0), std::log(3.0f), 1e-4f);
}

TEST(OpsGradTest, CosineDistanceRows) {
  Var a = Param(1, 5, 21);
  Var b = Param(1, 5, 22);
  auto loss = [&] { return CosineDistanceRows(a, b); };
  EXPECT_LT(MaxGradientError(loss, a), kTol);
  EXPECT_LT(MaxGradientError(loss, b), kTol);
  // Identical vectors -> distance ~0.
  Var c(Matrix::RowVector({1, 2, 3}), false);
  EXPECT_NEAR(CosineDistanceRows(c, c).value().At(0, 0), 0.0f, 1e-4f);
}

TEST(OpsTest, DropoutTrainingMasksAndScales) {
  Rng rng(23);
  Var a(Matrix(10, 10, 1.0f), true);
  Var d = Dropout(a, 0.5f, /*training=*/true, &rng);
  int zeros = 0;
  for (size_t i = 0; i < d.value().size(); ++i) {
    float v = d.value().data()[i];
    EXPECT_TRUE(v == 0.0f || std::fabs(v - 2.0f) < 1e-5f);
    if (v == 0.0f) ++zeros;
  }
  EXPECT_GT(zeros, 20);
  EXPECT_LT(zeros, 80);
}

TEST(OpsTest, DropoutEvalIsIdentity) {
  Rng rng(24);
  Var a(Matrix(3, 3, 1.5f), false);
  Var d = Dropout(a, 0.5f, /*training=*/false, &rng);
  EXPECT_EQ(d.value(), a.value());
}

TEST(OpsTest, ConstantsReceiveNoGradient) {
  Var c = Constant(Matrix::FromRows({{1, 2}}));
  Var x(Matrix::FromRows({{3, 4}}), true);
  Var loss = MeanAll(Mul(c, x));
  loss.Backward();
  EXPECT_EQ(c.grad().size(), 0u);
  EXPECT_GT(x.grad().size(), 0u);
}

TEST(OpsTest, ComposedExpressionGradCheck) {
  // A miniature MLP forward pass, gradient-checked end to end.
  Var x = Constant(Matrix::FromRows({{0.2f, -0.4f, 0.6f}}));
  Var w1 = Param(3, 4, 25);
  Var b1 = Param(1, 4, 26);
  Var w2 = Param(4, 2, 27);
  auto loss = [&] {
    Var h = Relu(AddRowBroadcast(MatMul(x, w1), b1));
    Var logits = MatMul(h, w2);
    return CrossEntropyWithLogits(logits, {1});
  };
  EXPECT_LT(MaxGradientError(loss, w1), kTol);
  EXPECT_LT(MaxGradientError(loss, b1), kTol);
  EXPECT_LT(MaxGradientError(loss, w2), kTol);
}

}  // namespace
}  // namespace nerglob::ag
