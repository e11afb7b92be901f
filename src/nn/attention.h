#ifndef NERGLOB_NN_ATTENTION_H_
#define NERGLOB_NN_ATTENTION_H_

#include <memory>
#include <vector>

#include "nn/layers.h"

namespace nerglob::nn {

/// Multi-head scaled dot-product self-attention over a single sequence.
/// Input/output shape (T, d_model).
class MultiHeadSelfAttention : public Module {
 public:
  /// A null `rng` builds shape only (see Linear).
  MultiHeadSelfAttention(size_t d_model, size_t num_heads, Rng* rng);

  /// Thread-safe once training has finished.
  ag::Var Forward(const ag::Var& x) const;

  std::vector<ag::Var> Parameters() const override;

  size_t num_heads() const { return num_heads_; }

 private:
  size_t d_model_;
  size_t num_heads_;
  size_t head_dim_;
  Linear wq_;
  Linear wk_;
  Linear wv_;
  Linear wo_;
};

/// A pre-LN transformer encoder layer:
///   x = x + MHA(LN(x));  x = x + FFN(LN(x))
/// with a ReLU feed-forward of width ff_mult * d_model.
class TransformerEncoderLayer : public Module {
 public:
  /// A null `rng` builds shape only (see Linear).
  TransformerEncoderLayer(size_t d_model, size_t num_heads, size_t ff_mult,
                          float dropout, Rng* rng);

  /// Dropout applies only when `training`.
  ag::Var Forward(const ag::Var& x, bool training, Rng* rng) const;

  std::vector<ag::Var> Parameters() const override;

 private:
  float dropout_;
  MultiHeadSelfAttention mha_;
  LayerNorm ln1_;
  LayerNorm ln2_;
  Linear ff1_;
  Linear ff2_;
};

}  // namespace nerglob::nn

#endif  // NERGLOB_NN_ATTENTION_H_
