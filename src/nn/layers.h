#ifndef NERGLOB_NN_LAYERS_H_
#define NERGLOB_NN_LAYERS_H_

#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/rng.h"
#include "nn/module.h"

namespace nerglob::nn {

/// Fully-connected layer: y = x W + b. Glorot-uniform initialized.
class Linear : public Module {
 public:
  /// Draws the weight from `rng`. A null `rng` allocates the weight
  /// zero-filled instead (shape only, for a loader that overwrites every
  /// parameter); the bias is zero either way.
  Linear(size_t in_features, size_t out_features, Rng* rng);

  /// x: (m, in) -> (m, out), one fused gemm + bias for every shape.
  ag::Var Forward(const ag::Var& x) const;

  std::vector<ag::Var> Parameters() const override { return {weight_, bias_}; }

  const ag::Var& weight() const { return weight_; }
  const ag::Var& bias() const { return bias_; }

 private:
  ag::Var weight_;  // (in, out)
  ag::Var bias_;    // (1, out)
};

/// Token embedding table with gather-based lookup.
class Embedding : public Module {
 public:
  /// Draws the table from `rng`; a null `rng` allocates it zero-filled
  /// (shape only, as for Linear).
  Embedding(size_t vocab_size, size_t dim, Rng* rng);

  /// ids (each in [0, vocab)) -> (ids.size(), dim).
  ag::Var Forward(const std::vector<int>& ids) const;

  /// Bags of ids -> (bag_ends.size(), dim), row t the mean of bag t's
  /// embeddings (see ag::GatherMeanRows).
  ag::Var ForwardMean(const std::vector<int>& ids,
                      const std::vector<size_t>& bag_ends) const;

  std::vector<ag::Var> Parameters() const override { return {table_}; }

  size_t vocab_size() const { return table_.rows(); }
  size_t dim() const { return table_.cols(); }

 private:
  ag::Var table_;  // (vocab, dim)
};

/// Layer normalization over the feature (column) axis, per row.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(size_t dim);

  ag::Var Forward(const ag::Var& x) const;

  std::vector<ag::Var> Parameters() const override { return {gamma_, beta_}; }

 private:
  ag::Var gamma_;  // (1, dim), init 1
  ag::Var beta_;   // (1, dim), init 0
};

/// A small multi-layer perceptron: Linear/ReLU stacks with a linear head.
/// Used for the Entity Classifier ("multiple dense layers with ReLU
/// activation and a softmax output layer", Sec. V-D).
class Mlp : public Module {
 public:
  /// dims = {in, h1, ..., out}. Hidden layers get ReLU; the last is linear.
  /// A null `rng` builds shape only (see Linear).
  Mlp(const std::vector<size_t>& dims, Rng* rng);

  ag::Var Forward(const ag::Var& x) const;

  std::vector<ag::Var> Parameters() const override;

 private:
  std::vector<Linear> layers_;
};

}  // namespace nerglob::nn

#endif  // NERGLOB_NN_LAYERS_H_
