#include <gtest/gtest.h>

#include <cmath>

#include "autograd/gradient_check.h"
#include "nn/attention.h"
#include "nn/char_cnn.h"
#include "nn/crf.h"
#include "nn/layers.h"
#include "nn/losses.h"
#include "nn/optimizer.h"
#include "nn/recurrent.h"
#include "nn/train_util.h"

namespace nerglob::nn {
namespace {

constexpr float kTol = 3e-2f;

TEST(LinearTest, ShapesAndGradients) {
  Rng rng(1);
  Linear lin(3, 2, &rng);
  EXPECT_EQ(lin.NumParameters(), 3u * 2u + 2u);
  ag::Var x = ag::Constant(Matrix::FromRows({{0.1f, -0.2f, 0.5f}, {1.0f, 0.3f, -0.4f}}));
  ag::Var y = lin.Forward(x);
  EXPECT_EQ(y.rows(), 2u);
  EXPECT_EQ(y.cols(), 2u);
  for (ag::Var p : lin.Parameters()) {
    EXPECT_LT(ag::MaxGradientError([&] { return ag::MeanAll(lin.Forward(x)); }, p), kTol);
  }
}

// The value of `forward(x)` under an ag::NoGradScope (arena slots, no
// graph) and on the tape: the same ops and kernels, so the same bytes.
template <typename Forward>
void ExpectNoGradMatchesTape(const Forward& forward, const Matrix& x) {
  Matrix no_grad;
  {
    ag::NoGradScope scope(&common::ScratchArena::ThreadLocal());
    ag::Var y = forward(ag::ConstantRef(x));
    EXPECT_EQ(y.node(), nullptr);  // borrowed: no tape node
    no_grad = y.value();
  }
  EXPECT_EQ(no_grad, forward(ag::Constant(x)).value());
}

TEST(LinearTest, NoGradForwardMatchesTapeBitForBit) {
  Rng rng(7);
  Linear lin(16, 8, &rng);
  // One SIMD gemm path for every shape, batch and single row alike.
  auto forward = [&](const ag::Var& x) { return lin.Forward(x); };
  ExpectNoGradMatchesTape(forward, Matrix::Randn(5, 16, 1.0f, &rng));
  ExpectNoGradMatchesTape(forward, Matrix::Randn(1, 16, 1.0f, &rng));
}

TEST(LayerNormTest, NoGradForwardMatchesTapeBitForBit) {
  Rng rng(21);
  LayerNorm ln(12);
  // Non-trivial affine parameters so the test covers gamma/beta too.
  ln.Parameters()[0].mutable_value() = Matrix::Randn(1, 12, 1.0f, &rng);
  ln.Parameters()[1].mutable_value() = Matrix::Randn(1, 12, 0.5f, &rng);
  auto forward = [&](const ag::Var& x) { return ln.Forward(x); };
  ExpectNoGradMatchesTape(forward, Matrix::Randn(5, 12, 2.0f, &rng));
  ExpectNoGradMatchesTape(forward, Matrix::Randn(1, 12, 2.0f, &rng));
}

TEST(AttentionTest, NoGradForwardMatchesTapeBitForBit) {
  Rng rng(22);
  MultiHeadSelfAttention mha(16, 4, &rng);
  ExpectNoGradMatchesTape([&](const ag::Var& x) { return mha.Forward(x); },
                          Matrix::Randn(7, 16, 1.0f, &rng));
}

TEST(AttentionTest, EncoderLayerNoGradForwardMatchesEvalTapeBitForBit) {
  Rng rng(23);
  TransformerEncoderLayer layer(16, 2, /*ff_mult=*/2, /*dropout=*/0.3f, &rng);
  // Dropout is off when not training, so a non-zero rate must not matter.
  Rng unused(0);
  ExpectNoGradMatchesTape(
      [&](const ag::Var& x) {
        return layer.Forward(x, /*training=*/false, &unused);
      },
      Matrix::Randn(6, 16, 1.0f, &rng));
}

TEST(MlpTest, NoGradForwardIsAllocationFreeOnceWarm) {
  Rng rng(24);
  Mlp mlp({8, 16, 16, 4}, &rng);
  Matrix x = Matrix::Randn(3, 8, 1.0f, &rng);
  common::ScratchArena arena;
  auto run = [&] {
    ag::NoGradScope scope(&arena);
    return mlp.Forward(ag::ConstantRef(x)).rows();
  };
  run();  // warm-up: the slots grow
  const uint64_t warm = arena.heap_allocs();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(run(), 3u);
  EXPECT_EQ(arena.heap_allocs(), warm);
  EXPECT_EQ(arena.depth(), 0u);  // every scope restored its mark
}

TEST(MlpTest, NoGradForwardMatchesTapeBitForBit) {
  Rng rng(9);
  Mlp mlp({12, 10, 10, 5}, &rng);
  auto forward = [&](const ag::Var& x) { return mlp.Forward(x); };
  ExpectNoGradMatchesTape(forward, Matrix::Randn(6, 12, 1.0f, &rng));
  ExpectNoGradMatchesTape(forward, Matrix::Randn(1, 12, 1.0f, &rng));
}

TEST(EmbeddingTest, LookupAndGradient) {
  Rng rng(2);
  Embedding emb(10, 4, &rng);
  ag::Var out = emb.Forward({3, 3, 7});
  EXPECT_EQ(out.rows(), 3u);
  EXPECT_EQ(out.cols(), 4u);
  // Rows 0 and 1 are the same table row.
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_FLOAT_EQ(out.value().At(0, c), out.value().At(1, c));
  }
  ag::Var table = emb.Parameters()[0];
  auto loss = [&] { return ag::MeanAll(emb.Forward({3, 3, 7})); };
  EXPECT_LT(ag::MaxGradientError(loss, table), kTol);
}

TEST(LayerNormTest, NormalizesRows) {
  Rng rng(3);
  LayerNorm ln(6);
  ag::Var x = ag::Constant(Matrix::Randn(4, 6, 3.0f, &rng));
  ag::Var y = ln.Forward(x);
  for (size_t r = 0; r < 4; ++r) {
    double mean = 0, var = 0;
    for (size_t c = 0; c < 6; ++c) mean += y.value().At(r, c);
    mean /= 6;
    for (size_t c = 0; c < 6; ++c) {
      double d = y.value().At(r, c) - mean;
      var += d * d;
    }
    var /= 6;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(MlpTest, ForwardShapeAndGrad) {
  Rng rng(6);
  Mlp mlp({4, 8, 3}, &rng);
  ag::Var x = ag::Constant(Matrix::Randn(2, 4, 1.0f, &rng));
  ag::Var y = mlp.Forward(x);
  EXPECT_EQ(y.cols(), 3u);
  ag::Var p = mlp.Parameters()[0];
  auto loss = [&] { return ag::CrossEntropyWithLogits(mlp.Forward(x), {0, 2}); };
  EXPECT_LT(ag::MaxGradientError(loss, p), kTol);
}

TEST(AttentionTest, ShapePreservedAndGradFlows) {
  Rng rng(7);
  MultiHeadSelfAttention mha(8, 2, &rng);
  ag::Var x = ag::Constant(Matrix::Randn(5, 8, 0.5f, &rng));
  ag::Var y = mha.Forward(x);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 8u);
  ag::Var wq = mha.Parameters()[0];
  auto loss = [&] { return ag::MeanAll(mha.Forward(x)); };
  EXPECT_LT(ag::MaxGradientError(loss, wq), 5e-2f);
}

TEST(TransformerLayerTest, ForwardAndTraining) {
  Rng rng(8);
  TransformerEncoderLayer layer(8, 2, 2, /*dropout=*/0.0f, &rng);
  ag::Var x = ag::Constant(Matrix::Randn(4, 8, 0.5f, &rng));
  Rng drop_rng(1);
  ag::Var y = layer.Forward(x, /*training=*/false, &drop_rng);
  EXPECT_EQ(y.rows(), 4u);
  EXPECT_EQ(y.cols(), 8u);
  EXPECT_GT(layer.NumParameters(), 0u);
}

TEST(LstmTest, ShapesAndDirectionality) {
  Rng rng(9);
  Lstm lstm(3, 5, &rng);
  ag::Var x = ag::Constant(Matrix::Randn(6, 3, 1.0f, &rng));
  ag::Var h = lstm.Forward(x);
  EXPECT_EQ(h.rows(), 6u);
  EXPECT_EQ(h.cols(), 5u);
  // Reverse pass differs from forward pass.
  ag::Var hr = lstm.Forward(x, /*reverse=*/true);
  float diff = 0;
  for (size_t i = 0; i < h.value().size(); ++i) {
    diff += std::fabs(h.value().data()[i] - hr.value().data()[i]);
  }
  EXPECT_GT(diff, 1e-3f);
}

TEST(LstmTest, GradientCheck) {
  Rng rng(10);
  Lstm lstm(2, 3, &rng);
  ag::Var x = ag::Constant(Matrix::Randn(4, 2, 0.5f, &rng));
  ag::Var w = lstm.Parameters()[0];
  auto loss = [&] { return ag::MeanAll(lstm.Forward(x)); };
  EXPECT_LT(ag::MaxGradientError(loss, w), 5e-2f);
}

TEST(BiLstmTest, ConcatenatesDirections) {
  Rng rng(11);
  BiLstm bi(3, 4, &rng);
  ag::Var x = ag::Constant(Matrix::Randn(5, 3, 1.0f, &rng));
  ag::Var h = bi.Forward(x);
  EXPECT_EQ(h.rows(), 5u);
  EXPECT_EQ(h.cols(), 8u);
  EXPECT_EQ(bi.Parameters().size(), 4u);
}

TEST(CharCnnTest, FixedSizeOutput) {
  Rng rng(12);
  CharCnn cnn(4, 6, &rng);
  ag::Var a = cnn.Forward("covid");
  ag::Var b = cnn.Forward("a");
  ag::Var c = cnn.Forward("");
  EXPECT_EQ(a.cols(), 6u);
  EXPECT_EQ(b.cols(), 6u);
  EXPECT_EQ(c.cols(), 6u);
  EXPECT_FLOAT_EQ(c.value().Sum(), 0.0f);
}

TEST(CharCnnTest, SimilarWordsShareFeatures) {
  Rng rng(13);
  CharCnn cnn(8, 16, &rng);
  // Same word must produce identical features.
  ag::Var a1 = cnn.Forward("beshear");
  ag::Var a2 = cnn.Forward("beshear");
  EXPECT_EQ(a1.value(), a2.value());
}

TEST(TripletLossTest, ZeroWhenWellSeparated) {
  // Anchor == positive, negative orthogonal, margin 1 -> loss exactly 0.
  ag::Var a = ag::Constant(Matrix::RowVector({1, 0}));
  ag::Var p = ag::Constant(Matrix::RowVector({2, 0}));
  ag::Var n = ag::Constant(Matrix::RowVector({0, 3}));
  ag::Var loss = TripletCosineLoss(a, p, n, 1.0f);
  EXPECT_NEAR(loss.value().At(0, 0), 0.0f, 1e-5f);
}

TEST(TripletLossTest, PositiveWhenViolated) {
  // Negative closer than positive -> loss > 0.
  ag::Var a = ag::Constant(Matrix::RowVector({1, 0}));
  ag::Var p = ag::Constant(Matrix::RowVector({0, 1}));
  ag::Var n = ag::Constant(Matrix::RowVector({1, 0.1f}));
  ag::Var loss = TripletCosineLoss(a, p, n, 1.0f);
  EXPECT_GT(loss.value().At(0, 0), 0.5f);
}

TEST(TripletLossTest, GradientCheck) {
  Rng rng(14);
  ag::Var a(Matrix::Randn(1, 4, 1.0f, &rng), true);
  ag::Var p(Matrix::Randn(1, 4, 1.0f, &rng), true);
  ag::Var n(Matrix::Randn(1, 4, 1.0f, &rng), true);
  auto loss = [&] { return TripletCosineLoss(a, p, n, 1.0f); };
  if (loss().value().At(0, 0) > 1e-3f) {  // only check away from the kink
    EXPECT_LT(ag::MaxGradientError(loss, a), kTol);
    EXPECT_LT(ag::MaxGradientError(loss, p), kTol);
    EXPECT_LT(ag::MaxGradientError(loss, n), kTol);
  }
}

TEST(SoftNnLossTest, LowerWhenClassesSeparated) {
  // Two classes, separated vs mixed.
  Matrix separated = Matrix::FromRows(
      {{1, 0}, {0.9f, 0.1f}, {0, 1}, {0.1f, 0.9f}});
  Matrix mixed = Matrix::FromRows({{1, 0}, {0, 1}, {1, 0.05f}, {0.05f, 1}});
  std::vector<int> labels = {0, 0, 1, 1};
  ag::Var ls = SoftNearestNeighborLoss(ag::Var(separated, true), labels, 0.5f);
  ag::Var lm = SoftNearestNeighborLoss(ag::Var(mixed, true), labels, 0.5f);
  EXPECT_LT(ls.value().At(0, 0), lm.value().At(0, 0));
}

TEST(SoftNnLossTest, GradientCheck) {
  Rng rng(15);
  ag::Var x(Matrix::Randn(5, 3, 1.0f, &rng), true);
  std::vector<int> labels = {0, 1, 0, 1, 0};
  auto loss = [&] { return SoftNearestNeighborLoss(x, labels, 0.7f); };
  EXPECT_LT(ag::MaxGradientError(loss, x), 5e-2f);
}

TEST(SgdTest, ConvergesOnQuadratic) {
  // Minimize ||x - t||^2 by SGD.
  ag::Var x(Matrix::RowVector({5, -3}), true);
  ag::Var target = ag::Constant(Matrix::RowVector({1, 2}));
  Sgd opt({x}, 0.1f);
  for (int i = 0; i < 200; ++i) {
    opt.ZeroGrad();
    ag::Var diff = ag::Sub(x, target);
    ag::Var loss = ag::SumAll(ag::Mul(diff, diff));
    loss.Backward();
    opt.Step();
  }
  EXPECT_NEAR(x.value().At(0, 0), 1.0f, 1e-3f);
  EXPECT_NEAR(x.value().At(0, 1), 2.0f, 1e-3f);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  ag::Var x(Matrix::RowVector({5, -3}), true);
  ag::Var target = ag::Constant(Matrix::RowVector({1, 2}));
  Adam opt({x}, 0.1f);
  for (int i = 0; i < 500; ++i) {
    opt.ZeroGrad();
    ag::Var diff = ag::Sub(x, target);
    ag::Var loss = ag::SumAll(ag::Mul(diff, diff));
    loss.Backward();
    opt.Step();
  }
  EXPECT_NEAR(x.value().At(0, 0), 1.0f, 1e-2f);
  EXPECT_NEAR(x.value().At(0, 1), 2.0f, 1e-2f);
}

TEST(AdamTest, WeightDecayShrinksUnusedDirections) {
  ag::Var x(Matrix::RowVector({4.0f}), true);
  Adam opt({x}, 0.05f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/0.1f);
  for (int i = 0; i < 300; ++i) {
    opt.ZeroGrad();
    // Loss = 0 * x: only decay acts (gradient must exist, so use 0*x).
    ag::Var loss = ag::SumAll(ag::ScalarMul(x, 0.0f));
    loss.Backward();
    opt.Step();
  }
  EXPECT_LT(std::fabs(x.value().At(0, 0)), 2.0f);
}

TEST(LinearWarmupScheduleTest, WarmsUpThenDecays) {
  LinearWarmupSchedule schedule(1.0f, 100, 0.1);
  EXPECT_LT(schedule.LearningRate(0), 0.2f);   // early warmup
  EXPECT_FLOAT_EQ(schedule.LearningRate(9), 1.0f);  // warmup peak
  EXPECT_GT(schedule.LearningRate(10), schedule.LearningRate(50));
  EXPECT_GT(schedule.LearningRate(50), schedule.LearningRate(99));
  EXPECT_NEAR(schedule.LearningRate(99), 0.0f, 0.02f);
  // Clamped beyond the end.
  EXPECT_FLOAT_EQ(schedule.LearningRate(1000), schedule.LearningRate(99));
}

TEST(LinearWarmupScheduleTest, ZeroWarmupStartsAtPeak) {
  LinearWarmupSchedule schedule(0.5f, 10, 0.0);
  EXPECT_FLOAT_EQ(schedule.LearningRate(0), 0.5f);
  EXPECT_LT(schedule.LearningRate(9), 0.1f);
}

TEST(ClipGradNormTest, ScalesDownLargeGradients) {
  ag::Var x(Matrix::RowVector({1, 1}), true);
  ag::Var loss = ag::SumAll(ag::ScalarMul(x, 100.0f));
  loss.Backward();
  const float pre = ClipGradNorm({x}, 1.0f);
  EXPECT_GT(pre, 100.0f);
  double norm = 0;
  for (size_t i = 0; i < x.grad().size(); ++i) {
    norm += x.grad().data()[i] * x.grad().data()[i];
  }
  EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-4);
}

TEST(CrfTest, DecodeReturnsValidTags) {
  Rng rng(16);
  LinearChainCrf crf(4, &rng);
  Matrix emissions = Matrix::Randn(6, 4, 1.0f, &rng);
  auto tags = crf.Decode(emissions);
  ASSERT_EQ(tags.size(), 6u);
  for (int t : tags) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, 4);
  }
}

TEST(CrfTest, NllIsNonNegativeAndGradChecks) {
  Rng rng(17);
  LinearChainCrf crf(3, &rng);
  ag::Var emissions(Matrix::Randn(4, 3, 0.5f, &rng), true);
  std::vector<int> tags = {0, 2, 1, 1};
  ag::Var nll = crf.NegLogLikelihood(emissions, tags);
  EXPECT_GT(nll.value().At(0, 0), 0.0f);
  auto loss = [&] { return crf.NegLogLikelihood(emissions, tags); };
  EXPECT_LT(ag::MaxGradientError(loss, emissions), kTol);
  for (ag::Var p : crf.Parameters()) {
    EXPECT_LT(ag::MaxGradientError(loss, p), kTol);
  }
}

TEST(CrfTest, TrainingRecoversTransitionStructure) {
  // Sequences alternate 0,1,0,1... Train CRF on uninformative emissions;
  // it must learn the transition pattern and decode the alternation.
  Rng rng(18);
  LinearChainCrf crf(2, &rng);
  Adam opt(crf.Parameters(), 0.1f);
  Matrix flat(6, 2);  // zero emissions: all signal must come from the CRF
  std::vector<int> gold = {0, 1, 0, 1, 0, 1};
  for (int epoch = 0; epoch < 60; ++epoch) {
    opt.ZeroGrad();
    ag::Var nll = crf.NegLogLikelihood(ag::Constant(flat), gold);
    nll.Backward();
    opt.Step();
  }
  auto decoded = crf.Decode(flat);
  EXPECT_EQ(decoded, gold);
}

TEST(EarlyStopperTest, StopsAfterPatienceAndRestoresBest) {
  ag::Var x(Matrix::RowVector({1.0f}), true);
  std::vector<ag::Var> params = {x};
  EarlyStopper stopper(2, /*higher_is_better=*/true);
  EXPECT_TRUE(stopper.Observe(0.5, params));  // best
  x.mutable_value().At(0, 0) = 2.0f;
  EXPECT_TRUE(stopper.Observe(0.7, params));  // better
  x.mutable_value().At(0, 0) = 3.0f;
  EXPECT_FALSE(stopper.Observe(0.6, params));
  EXPECT_FALSE(stopper.ShouldStop());
  EXPECT_FALSE(stopper.Observe(0.65, params));
  EXPECT_TRUE(stopper.ShouldStop());
  EXPECT_DOUBLE_EQ(stopper.best_metric(), 0.7);
  stopper.RestoreBest(&params);
  EXPECT_FLOAT_EQ(x.value().At(0, 0), 2.0f);  // value at the best epoch
}

TEST(SnapshotTest, RoundTrip) {
  ag::Var a(Matrix::RowVector({1, 2}), true);
  ag::Var b(Matrix::RowVector({3}), true);
  std::vector<ag::Var> params = {a, b};
  auto snap = SnapshotParameters(params);
  a.mutable_value().At(0, 0) = 99.0f;
  RestoreParameters(snap, &params);
  EXPECT_FLOAT_EQ(a.value().At(0, 0), 1.0f);
}

}  // namespace
}  // namespace nerglob::nn
