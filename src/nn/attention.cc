#include "nn/attention.h"

#include <cmath>

#include "common/check.h"

namespace nerglob::nn {

MultiHeadSelfAttention::MultiHeadSelfAttention(size_t d_model, size_t num_heads,
                                               Rng* rng)
    : d_model_(d_model),
      num_heads_(num_heads),
      head_dim_(d_model / num_heads),
      wq_(d_model, d_model, rng),
      wk_(d_model, d_model, rng),
      wv_(d_model, d_model, rng),
      wo_(d_model, d_model, rng) {
  NERGLOB_CHECK_EQ(head_dim_ * num_heads_, d_model_)
      << "d_model must be divisible by num_heads";
}

ag::Var MultiHeadSelfAttention::Forward(const ag::Var& x) const {
  NERGLOB_CHECK_EQ(x.cols(), d_model_);
  const ag::Var q = wq_.Forward(x);
  const ag::Var k = wk_.Forward(x);
  const ag::Var v = wv_.Forward(x);
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  // Reused per thread so a warm no-grad forward allocates nothing here;
  // emptied after the concat, which holds the tape's references.
  thread_local std::vector<ag::Var> heads;
  for (size_t h = 0; h < num_heads_; ++h) {
    const size_t off = h * head_dim_;
    ag::Var qh = ag::SliceCols(q, off, head_dim_);
    ag::Var kh = ag::SliceCols(k, off, head_dim_);
    ag::Var vh = ag::SliceCols(v, off, head_dim_);
    ag::Var scores = ag::ScalarMul(ag::MatMul(qh, ag::Transpose(kh)), scale);
    ag::Var attn = ag::SoftmaxRows(scores);
    heads.push_back(ag::MatMul(attn, vh));
  }
  const ag::Var concat = ag::ConcatCols(heads);
  heads.clear();
  return wo_.Forward(concat);
}

std::vector<ag::Var> MultiHeadSelfAttention::Parameters() const {
  std::vector<ag::Var> out;
  for (const Linear* l : {&wq_, &wk_, &wv_, &wo_}) {
    for (const ag::Var& p : l->Parameters()) out.push_back(p);
  }
  return out;
}

TransformerEncoderLayer::TransformerEncoderLayer(size_t d_model,
                                                 size_t num_heads,
                                                 size_t ff_mult, float dropout,
                                                 Rng* rng)
    : dropout_(dropout),
      mha_(d_model, num_heads, rng),
      ln1_(d_model),
      ln2_(d_model),
      ff1_(d_model, d_model * ff_mult, rng),
      ff2_(d_model * ff_mult, d_model, rng) {}

ag::Var TransformerEncoderLayer::Forward(const ag::Var& x, bool training,
                                         Rng* rng) const {
  ag::Var attn_out = mha_.Forward(ln1_.Forward(x));
  attn_out = ag::Dropout(attn_out, dropout_, training, rng);
  ag::Var h = ag::Add(x, attn_out);
  ag::Var ff = ff2_.Forward(ag::Relu(ff1_.Forward(ln2_.Forward(h))));
  ff = ag::Dropout(ff, dropout_, training, rng);
  return ag::Add(h, ff);
}

std::vector<ag::Var> TransformerEncoderLayer::Parameters() const {
  std::vector<ag::Var> out = mha_.Parameters();
  for (const Module* m :
       std::vector<const Module*>{&ln1_, &ln2_, &ff1_, &ff2_}) {
    for (const ag::Var& p : m->Parameters()) out.push_back(p);
  }
  return out;
}

}  // namespace nerglob::nn
