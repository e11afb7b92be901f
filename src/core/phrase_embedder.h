#ifndef NERGLOB_CORE_PHRASE_EMBEDDER_H_
#define NERGLOB_CORE_PHRASE_EMBEDDER_H_

#include <vector>

#include "nn/layers.h"
#include "tensor/matrix.h"

namespace nerglob::core {

/// Entity Phrase Embedder (Sec. V-B, Eq. 1–3): combines the token-level
/// contextual embeddings of a mention span into one fixed-size local
/// mention embedding:
///
///   pooled   = mean(token embeddings)          (Eq. 1)
///   pooled^  = pooled / ||pooled||             (Eq. 2)
///   local    = W_ff pooled^ + b_ff             (Eq. 3)
///
/// The Local NER encoder stays frozen; only W_ff/b_ff train (with a
/// contrastive objective — see core/training.h). `normalize` exposes the
/// paper's L2-normalization ablation ("adding the normalization step leads
/// to better performance").
///
/// Thread-safety: const methods (Forward/Embed) are safe to call
/// concurrently once training has finished; training mutates parameters
/// and must be exclusive. Embed is O(span_len · dim + dim²) per call.
class PhraseEmbedder : public nn::Module {
 public:
  /// A null `rng` builds shape only (see nn::Linear).
  PhraseEmbedder(size_t dim, Rng* rng, bool normalize = true);

  /// Differentiable forward over a span of the (frozen) token embeddings.
  /// Rows [begin, end) of token_embeddings; output (1, dim).
  ag::Var Forward(const Matrix& token_embeddings, size_t begin,
                  size_t end) const;

  /// Eval-mode convenience: the local mention embedding as a plain matrix.
  Matrix Embed(const Matrix& token_embeddings, size_t begin, size_t end) const;

  /// Embed into `out` (reshaped to (1, dim)): Forward under an
  /// ag::NoGradScope, its activations in the calling thread's scratch
  /// arena, so a steady-state caller that reuses `out` performs no heap
  /// allocation.
  void EmbedInto(const Matrix& token_embeddings, size_t begin, size_t end,
                 Matrix* out) const;

  std::vector<ag::Var> Parameters() const override { return dense_.Parameters(); }

  size_t dim() const { return dim_; }
  bool normalize() const { return normalize_; }

 private:
  size_t dim_;
  bool normalize_;
  nn::Linear dense_;
};

}  // namespace nerglob::core

#endif  // NERGLOB_CORE_PHRASE_EMBEDDER_H_
