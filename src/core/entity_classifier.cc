#include "core/entity_classifier.h"

#include "common/check.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace nerglob::core {

EntityClassifier::EntityClassifier(size_t dim, size_t hidden, Rng* rng,
                                   PoolingMode pooling)
    : dim_(dim),
      pooling_(pooling),
      attention_(dim, 1, rng),
      mlp_({dim, hidden, hidden, static_cast<size_t>(kNumClassifierClasses)},
           rng) {}

ag::Var EntityClassifier::Pool(const Matrix& members) const {
  NERGLOB_CHECK_GT(members.rows(), 0u);
  NERGLOB_CHECK_EQ(members.cols(), dim_);
  ag::Var locals = ag::ConstantRef(members);
  if (pooling_ == PoolingMode::kMean) return ag::MeanRows(locals);
  ag::Var scores = attention_.Forward(locals);            // (m, 1), Eq. 6
  ag::Var weights = ag::SoftmaxRows(ag::Transpose(scores));  // (1, m), Eq. 7
  return ag::MatMul(weights, locals);                     // (1, dim), Eq. 8
}

ag::Var EntityClassifier::ForwardLogits(const Matrix& members) const {
  return mlp_.Forward(Pool(members));
}

Matrix EntityClassifier::GlobalEmbedding(const Matrix& members) const {
  ag::NoGradScope scope(&common::ScratchArena::ThreadLocal());
  return Pool(members).value();
}

EntityClassifier::Prediction EntityClassifier::Predict(
    const Matrix& members) const {
  static const trace::TraceStage kStage("classify");
  trace::TraceSpan span(kStage);
  if (metrics::Enabled()) {
    static metrics::Counter* const classifications =
        metrics::MetricsRegistry::Global().GetCounter(
            "pipeline.classifications_total");
    classifications->Increment();
  }
  ag::NoGradScope scope(&common::ScratchArena::ThreadLocal());
  const ag::Var softmax = ag::SoftmaxRows(ForwardLogits(members));
  const Matrix& probs = softmax.value();
  Prediction pred;
  pred.cls = 0;
  for (int c = 1; c < kNumClassifierClasses; ++c) {
    if (probs.At(0, static_cast<size_t>(c)) >
        probs.At(0, static_cast<size_t>(pred.cls))) {
      pred.cls = c;
    }
  }
  pred.confidence = probs.At(0, static_cast<size_t>(pred.cls));
  return pred;
}

std::vector<ag::Var> EntityClassifier::Parameters() const {
  std::vector<ag::Var> out = attention_.Parameters();
  for (const ag::Var& p : mlp_.Parameters()) out.push_back(p);
  return out;
}

}  // namespace nerglob::core
