#include "core/phrase_embedder.h"

#include "common/check.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace nerglob::core {

PhraseEmbedder::PhraseEmbedder(size_t dim, Rng* rng, bool normalize)
    : dim_(dim), normalize_(normalize), dense_(dim, dim, rng) {}

ag::Var PhraseEmbedder::Forward(const Matrix& token_embeddings, size_t begin,
                                size_t end) const {
  NERGLOB_CHECK_LT(begin, end);
  NERGLOB_CHECK_LE(end, token_embeddings.rows());
  NERGLOB_CHECK_EQ(token_embeddings.cols(), dim_);
  // Token embeddings are constants here: the Local NER encoder is frozen
  // (Sec. V-B: "the weights fine-tuned during Local NER remain frozen").
  ag::Var span = ag::SliceRows(ag::ConstantRef(token_embeddings), begin,
                               end - begin);
  ag::Var pooled = ag::MeanRows(span);                       // Eq. 1
  if (normalize_) pooled = ag::L2NormalizeRows(pooled);      // Eq. 2
  return dense_.Forward(pooled);                             // Eq. 3
}

Matrix PhraseEmbedder::Embed(const Matrix& token_embeddings, size_t begin,
                             size_t end) const {
  Matrix out;
  EmbedInto(token_embeddings, begin, end, &out);
  return out;
}

void PhraseEmbedder::EmbedInto(const Matrix& token_embeddings, size_t begin,
                               size_t end, Matrix* out) const {
  static const trace::TraceStage kStage("phrase_embed");
  trace::TraceSpan span(kStage);
  if (metrics::Enabled()) {
    static metrics::Counter* const embeds =
        metrics::MetricsRegistry::Global().GetCounter(
            "pipeline.phrase_embeds_total");
    embeds->Increment();
  }
  // Safe from ParallelFor bodies: the scope builds no graph and each
  // thread owns its arena.
  ag::NoGradScope scope(&common::ScratchArena::ThreadLocal());
  *out = Forward(token_embeddings, begin, end).value();
}

}  // namespace nerglob::core
