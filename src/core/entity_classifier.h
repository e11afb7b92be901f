#ifndef NERGLOB_CORE_ENTITY_CLASSIFIER_H_
#define NERGLOB_CORE_ENTITY_CLASSIFIER_H_

#include <vector>

#include "nn/layers.h"
#include "text/bio.h"

namespace nerglob::core {

/// Class index layout for the L+1-way Entity Classifier: indices 0..3 are
/// the entity types (same order as text::EntityType); index 4 is the
/// non-entity class (Sec. V-D).
inline constexpr int kNonEntityClass = text::kNumEntityTypes;
inline constexpr int kNumClassifierClasses = text::kNumEntityTypes + 1;

/// Entity Classifier (Sec. V-D, Eq. 6–8): a learned attention pooling over
/// the local embeddings of a candidate cluster produces the global
/// candidate embedding,
///
///   a_j = W_a^T local_j + b_a          (Eq. 6)
///   w   = softmax(a)                   (Eq. 7)
///   global = sum_j w_j local_j         (Eq. 8)
///
/// followed by an MLP with ReLU activations and a softmax output over the
/// L+1 classes. Pooling and classification train end-to-end.
///
/// Thread-safety: const methods (Predict, GlobalEmbedding, ForwardLogits)
/// are safe to call concurrently once training has finished — the eval
/// paths run ForwardLogits under an ag::NoGradScope and build no graph —
/// training must be exclusive.
/// Predict is O(m · dim + dim · hidden + hidden²) for an m-member cluster.
///
/// How cluster member embeddings are aggregated into the global candidate
/// embedding. The paper's production system uses the learned attention
/// pooling of Eq. 6–8; plain averaging is the ablation variant (the same
/// pooling Akbik et al. use for token memories).
enum class PoolingMode { kAttention, kMean };

class EntityClassifier : public nn::Module {
 public:
  /// dim: embedding width; hidden: width of the two dense layers. A null
  /// `rng` builds shape only (see nn::Linear).
  EntityClassifier(size_t dim, size_t hidden, Rng* rng,
                   PoolingMode pooling = PoolingMode::kAttention);

  /// Differentiable logits for one candidate cluster.
  /// members: (m, dim) — the local embeddings of the cluster's mentions.
  /// Returns (1, kNumClassifierClasses) pre-softmax logits.
  ag::Var ForwardLogits(const Matrix& members) const;

  /// The pooled global candidate embedding (Eq. 8) without classification.
  /// Exposed for analysis and the Akbik-style comparisons.
  Matrix GlobalEmbedding(const Matrix& members) const;

  /// Eval-mode prediction with softmax confidence.
  struct Prediction {
    int cls = kNonEntityClass;
    float confidence = 0.0f;
    bool is_entity() const { return cls != kNonEntityClass; }
    text::EntityType type() const { return static_cast<text::EntityType>(cls); }
  };
  Prediction Predict(const Matrix& members) const;

  std::vector<ag::Var> Parameters() const override;

  PoolingMode pooling() const { return pooling_; }

 private:
  ag::Var Pool(const Matrix& members) const;

  size_t dim_;
  PoolingMode pooling_;
  nn::Linear attention_;  // dim -> 1 (Eq. 6)
  nn::Mlp mlp_;           // dim -> hidden -> hidden -> L+1
};

}  // namespace nerglob::core

#endif  // NERGLOB_CORE_ENTITY_CLASSIFIER_H_
