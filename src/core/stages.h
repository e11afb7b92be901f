#ifndef NERGLOB_CORE_STAGES_H_
#define NERGLOB_CORE_STAGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/entity_classifier.h"
#include "core/local_ner.h"
#include "core/model_bundle.h"
#include "core/ner_globalizer_config.h"
#include "core/stream_state.h"
#include "lm/micro_bert.h"
#include "stream/message.h"
#include "tensor/matrix.h"
#include "text/bio.h"
#include "trie/candidate_trie.h"

namespace nerglob::core::stages {

/// The explicit stage graph behind NerGlobalizer::ProcessBatch (Fig. 2):
///
///   LocalEncode ─▶ IngestLocal ─▶ ExtractMentions ─▶ Evict
///   (model-only)  (state writes begin here ──────────────▶)
///
/// Every stage is a free function with the uniform signature
/// `(const ModelBundle&, StreamState&, StageContext&)`. The split exists for
/// one load-bearing property: **LocalEncode is the only stage that runs the
/// expensive encoder forward, and it touches neither the StreamState nor
/// the StageContext's cross-stage products** — its output is a pure
/// function of (model, message tokens). That lets a driver run LocalEncode's
/// work itself in one lm::MicroBert::EncodeMany call and inject the results
/// via StageContext::pre_encoded, and every downstream stage is bitwise
/// unaffected (enforced by pipeline_test).
///
/// The bundle is the driving NerGlobalizer's, borrowed const. A stage binds
/// the components it needs once per call, outside any ParallelFor.
///
/// No stage clusters eagerly: the state holds only the mention pools, and a
/// surface's candidate partition is computed by BuildCandidates when a
/// reader needs it (Evict's flush, NerGlobalizer::Predictions and
/// NerGlobalizer::Candidates).

/// Per-batch products flowing between stages. A fresh context is built for
/// every ProcessBatch; nothing in it outlives the batch (all cross-batch
/// state lives in StreamState).
struct StageContext {
  /// Pipeline configuration (borrowed from the driving NerGlobalizer).
  const NerGlobalizerConfig* config = nullptr;
  /// The batch being processed (borrowed; message order is stream order).
  const std::vector<stream::Message>* batch = nullptr;

  /// LocalEncode product: encoded[i] is the encoder output for
  /// (*batch)[i].tokens (default-constructed for empty messages). When
  /// `pre_encoded` is set the driver injected these results
  /// (NerGlobalizer::ProcessBatchPreEncoded) and LocalEncode is a no-op; the
  /// contract is that injected entries are bitwise equal to what
  /// bundle.model().Encode would produce, which EncodeMany guarantees for
  /// any batch composition.
  std::vector<lm::EncodeResult> encoded;
  bool pre_encoded = false;

  /// IngestLocal products.
  /// Ids of sentences that existed before this batch.
  std::vector<int64_t> old_ids;
  /// Ids of this batch's sentences now present in the TweetBase.
  std::vector<int64_t> new_ids;
  /// Aligned with new_ids: each sentence's token embeddings in `encoded`,
  /// the only copy; records hold none.
  std::vector<const Matrix*> new_embeddings;
  /// Surface forms first seen in this batch. ExtractMentions scans the old
  /// sentences against these only to select the ones to re-extract.
  trie::CandidateTrie delta;
};

/// Stage 1 — the per-message, model-only stage: runs the encoder forward
/// for every message in ctx.batch into ctx.encoded (via EncodeMany, so the
/// results are bitwise independent of how messages are batched). Reads no
/// StreamState; writes none. No-op when ctx.pre_encoded.
void LocalEncode(const ModelBundle& bundle, StreamState& state,
                 StageContext& ctx);

/// Stage 2 — serial ingest of the encode results, in stream order
/// (IngestEncodedBatch): snapshots ctx.old_ids, stores SentenceRecords in
/// the TweetBase, seeds the CTrie and the seed support with
/// locally-detected surface forms, and builds the delta trie. Points
/// ctx.new_embeddings at the new sentences' encoder output. First
/// state-mutating stage.
void IngestLocal(const ModelBundle& bundle, StreamState& state,
                 StageContext& ctx);

/// Stage 3 — mention extraction (Sec. III step 3): re-extracts
/// (ReExtractMentions) the new sentences, with their encoder output from
/// ctx.new_embeddings, and the old sentences in which a ctx.delta form
/// occurs, the only old sentences whose longest matches the new forms
/// change.
void ExtractMentions(const ModelBundle& bundle, StreamState& state,
                     StageContext& ctx);

/// Stage 4 — windowed eviction: retires the oldest records beyond
/// config->window_messages, flushing their final predictions to
/// state.finalized from the partitions of the surfaces that hold their
/// mentions (clustered before the pools shrink), then prunes unsupported
/// surfaces from the trie and re-extracts the live sentences that held a
/// mention of one. No-op when the window is unbounded or not yet exceeded.
void Evict(const ModelBundle& bundle, StreamState& state, StageContext& ctx);

/// The one operation that writes the mention pools. It keeps their
/// invariant: every live sentence's mentions are exactly the greedy longest
/// matches of its tokens against state.trie, and every pool is in
/// canonical order. Drops each sentence in `ids` (distinct) from every
/// pool, scans it against the full trie and merges the matches into their
/// pools; pools this empties are erased. A match that was already a
/// mention of its sentence (same message id, begin and end token) keeps
/// its pooled phrase embedding, which is a pure function of that key; only
/// the other matches are phrase-embedded. `encoded` is empty or aligned
/// with `ids`: a non-null entry is that sentence's token embeddings from
/// `model` (the batch's or the restore pass's). A sentence with a match to
/// embed and no such entry is re-encoded, all of them in one
/// lm::MicroBert::EncodeMany call, counted in
/// `pipeline.sentences_reencoded_total`; the bytes are those of its own
/// batch's encode. ExtractMentions, Evict and StreamState::Load (over the
/// whole restored window) all write the pools through here. Traced as
/// `mention_extraction`. O(ids * tokens * max_mention_span + re-encodes +
/// new matches * embed + mentions of the pools touched + surfaces log
/// pool).
void ReExtractMentions(const lm::MicroBert& model,
                       const PhraseEmbedder& embedder, size_t max_mention_span,
                       const std::vector<int64_t>& ids,
                       const std::vector<const Matrix*>& encoded,
                       StreamState& state);

/// Candidate clustering + classification (Sec. V-C/D): clusters each
/// surface's mention pool and classifies every cluster, returning one
/// partition per entry of `surfaces`, aligned with it (empty for a surface
/// without mentions). A pure function of the pools, which are the only
/// stored state: partitions are computed here whenever a reader needs
/// them, never cached. Surfaces run in parallel and merge in order, so the
/// result is thread-count independent. Traced as `refresh_candidates`.
/// O(sum over surfaces of min(pool, kMaxClusterPool)^3 + pool).
std::vector<std::vector<stream::CandidateEntry>> BuildCandidates(
    const EntityClassifier& classifier, const StreamState& state,
    const NerGlobalizerConfig& config,
    const std::vector<std::string>& surfaces);

/// Pools larger than this are clustered on a prefix sample, the mentions
/// of the lowest message ids (pools are in canonical order); the remaining
/// mentions join the nearest cluster centroid. Keeps the O(n^3) linkage
/// bounded for head entities with thousands of mentions. (Shared with the
/// EMD-Globalizer baseline pooling in harness.) Each BuildCandidates pool
/// over the cap counts in `cluster.pools_over_cap`.
inline constexpr size_t kMaxClusterPool = 64;

/// Greedy longest-first overlap resolution within one sentence (used by
/// Evict's finalization flush and NerGlobalizer's prediction readers).
std::vector<text::EntitySpan> ResolveOverlaps(
    std::vector<text::EntitySpan> spans);

}  // namespace nerglob::core::stages

#endif  // NERGLOB_CORE_STAGES_H_
