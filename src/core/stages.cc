#include "core/stages.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "cluster/agglomerative.h"
#include "common/metrics.h"
#include "common/scratch_arena.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/entity_classifier.h"
#include "core/phrase_embedder.h"

namespace nerglob::core::stages {

namespace {

/// The matching forms of a record's tokens, the trie's input.
std::vector<std::string> MatchTokens(const stream::SentenceRecord& record) {
  std::vector<std::string> match_tokens;
  match_tokens.reserve(record.message.tokens.size());
  for (const auto& tok : record.message.tokens) match_tokens.push_back(tok.match);
  return match_tokens;
}

void CountTrieScans(size_t scans) {
  if (!metrics::Enabled()) return;
  static metrics::Counter* const counter =
      metrics::MetricsRegistry::Global().GetCounter("pipeline.trie_scans_total");
  counter->Increment(scans);
}

/// Clusters one surface form's mention pool and classifies each cluster.
/// Pure read of the CandidateBase — safe to run concurrently across
/// surfaces.
std::vector<stream::CandidateEntry> ClusterSurface(
    const EntityClassifier& classifier, const StreamState& state,
    const NerGlobalizerConfig& config, const std::string& surface) {
  const auto& pool = state.candidate_base.Mentions(surface);
  if (pool.empty()) return {};
  const size_t n = pool.size();
  const size_t dim = pool[0].local_embedding.cols();

  // Cluster a bounded prefix; assign the tail to the nearest centroid.
  // The cluster span wraps all of candidate building; the classifier calls
  // below open nested "classify" spans, so stage.cluster.self_seconds is
  // clustering-only time while wall_seconds is the whole build.
  static const trace::TraceStage kClusterStage("cluster");
  trace::TraceSpan cluster_span(kClusterStage);
  const size_t head = std::min(n, kMaxClusterPool);
  common::ScratchFrame frame(&common::ScratchArena::ThreadLocal());
  Matrix* head_embs = frame.Get(head, dim);
  for (size_t i = 0; i < head; ++i) {
    std::copy(pool[i].local_embedding.Row(0),
              pool[i].local_embedding.Row(0) + dim, head_embs->Row(i));
  }
  cluster::ClusteringResult clustering = cluster::AgglomerativeClusterCosine(
      *head_embs, config.cluster_threshold);

  std::vector<std::vector<size_t>> members(clustering.num_clusters);
  for (size_t i = 0; i < head; ++i) {
    members[static_cast<size_t>(clustering.assignments[i])].push_back(i);
  }
  if (n > head) {
    // Centroids of the head clusters.
    std::vector<Matrix> centroids(clustering.num_clusters, Matrix(1, dim));
    for (size_t c = 0; c < clustering.num_clusters; ++c) {
      for (size_t i : members[c]) {
        centroids[c].AddInPlace(pool[i].local_embedding);
      }
      centroids[c].Scale(1.0f / static_cast<float>(members[c].size()));
    }
    for (size_t i = head; i < n; ++i) {
      size_t best = 0;
      float best_dist = CosineDistance(pool[i].local_embedding, centroids[0]);
      for (size_t c = 1; c < clustering.num_clusters; ++c) {
        const float d = CosineDistance(pool[i].local_embedding, centroids[c]);
        if (d < best_dist) {
          best_dist = d;
          best = c;
        }
      }
      members[best].push_back(i);
    }
  }

  std::vector<stream::CandidateEntry> entries;
  entries.reserve(members.size());
  for (const auto& cluster_members : members) {
    if (cluster_members.empty()) continue;
    // Inner frame so every cluster reuses one slot regardless of size.
    common::ScratchFrame cluster_frame(frame.arena());
    Matrix* member_embs = cluster_frame.Get(cluster_members.size(), dim);
    for (size_t j = 0; j < cluster_members.size(); ++j) {
      std::copy(pool[cluster_members[j]].local_embedding.Row(0),
                pool[cluster_members[j]].local_embedding.Row(0) + dim,
                member_embs->Row(j));
    }
    const EntityClassifier::Prediction pred = classifier.Predict(*member_embs);
    stream::CandidateEntry entry;
    entry.surface = surface;
    entry.mention_ids = cluster_members;
    entry.is_entity = pred.is_entity();
    if (pred.is_entity()) entry.type = pred.type();
    entry.confidence = pred.confidence;
    entries.push_back(std::move(entry));
  }
  if (metrics::Enabled()) {
    auto& registry = metrics::MetricsRegistry::Global();
    static metrics::Counter* const clusters =
        registry.GetCounter("pipeline.clusters_formed_total");
    static metrics::Counter* const dropped =
        registry.GetCounter("pipeline.false_positives_dropped_total");
    static metrics::Counter* const over_cap =
        registry.GetCounter("cluster.pools_over_cap");
    size_t non_entity = 0;
    for (const auto& entry : entries) {
      if (!entry.is_entity) ++non_entity;
    }
    clusters->Increment(entries.size());
    dropped->Increment(non_entity);
    if (n > head) over_cap->Increment();
  }
  return entries;
}

}  // namespace

void ReExtractMentions(const PhraseEmbedder& embedder, size_t max_mention_span,
                       const std::vector<int64_t>& ids, StreamState& state) {
  if (ids.empty()) return;
  static const trace::TraceStage kStage("mention_extraction");
  trace::TraceSpan span(kStage);

  // Phase 1 (parallel): per-sentence trie scans and phrase embeddings are
  // independent reads of the TweetBase, so they fan out over the thread
  // pool. Found mentions land in a per-id slot.
  struct Found {
    std::string surface;
    stream::MentionRecord mention;
  };
  std::vector<std::vector<Found>> found(ids.size());
  ParallelFor(0, ids.size(), /*grain=*/4, [&](size_t idx) {
    const int64_t id = ids[idx];
    const stream::SentenceRecord* record = state.tweet_base.Find(id);
    if (record == nullptr || record->message.tokens.empty() ||
        state.trie.size() == 0) {
      return;
    }
    for (const trie::TokenSpan& span :
         state.trie.FindLongestMatches(MatchTokens(*record), max_mention_span)) {
      // Mentions truncated away by the encoder have no embeddings; skip.
      if (span.begin >= record->token_embeddings.rows()) continue;
      const size_t emb_end = std::min(span.end, record->token_embeddings.rows());
      Found f;
      f.mention.message_id = id;
      f.mention.begin_token = span.begin;
      f.mention.end_token = span.end;
      f.surface = SpanSurfaceString(record->message, span.begin, span.end);
      // Retained state: the embedding outlives this batch in the
      // CandidateBase, so it owns heap storage; EmbedInto keeps every
      // intermediate in the worker's scratch arena.
      embedder.EmbedInto(record->token_embeddings, span.begin, emb_end,
                         &f.mention.local_embedding);
      found[idx].push_back(std::move(f));
    }
  });

  // Phase 2 (serial): replace the sentences' mentions. AddMentions merges
  // each surface's matches in canonical order, so the pools are the same
  // for any thread count and any history that led to this trie.
  const std::unordered_set<int64_t> id_set(ids.begin(), ids.end());
  state.candidate_base.RemoveMentionsOf(
      id_set, state.candidate_base.SurfacesWithMentionsOf(id_set));
  std::unordered_map<std::string, std::vector<stream::MentionRecord>> merged;
  size_t mention_count = 0;
  for (std::vector<Found>& per_id : found) {
    mention_count += per_id.size();
    for (Found& f : per_id) merged[f.surface].push_back(std::move(f.mention));
  }
  for (auto& [surface, mentions] : merged) {
    state.candidate_base.AddMentions(surface, std::move(mentions));
  }

  CountTrieScans(ids.size());
  if (metrics::Enabled()) {
    static metrics::Counter* const mentions =
        metrics::MetricsRegistry::Global().GetCounter(
            "pipeline.mentions_extracted_total");
    mentions->Increment(mention_count);
  }
}

std::vector<std::vector<stream::CandidateEntry>> BuildCandidates(
    const EntityClassifier& classifier, const StreamState& state,
    const NerGlobalizerConfig& config,
    const std::vector<std::string>& surfaces) {
  static const trace::TraceStage kStage("refresh_candidates");
  trace::TraceSpan span(kStage);
  // Each surface is an independent read of its pool; every result lands in
  // its own slot, so the output is the same for any thread count.
  std::vector<std::vector<stream::CandidateEntry>> built(surfaces.size());
  ParallelFor(0, surfaces.size(), /*grain=*/1, [&](size_t i) {
    built[i] = ClusterSurface(classifier, state, config, surfaces[i]);
  });
  return built;
}

std::vector<text::EntitySpan> ResolveOverlaps(std::vector<text::EntitySpan> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const text::EntitySpan& a, const text::EntitySpan& b) {
              const size_t la = a.end_token - a.begin_token;
              const size_t lb = b.end_token - b.begin_token;
              if (la != lb) return la > lb;
              if (a.begin_token != b.begin_token) return a.begin_token < b.begin_token;
              return static_cast<int>(a.type) < static_cast<int>(b.type);
            });
  std::vector<text::EntitySpan> kept;
  for (const auto& span : spans) {
    bool overlaps = false;
    for (const auto& k : kept) {
      if (span.begin_token < k.end_token && k.begin_token < span.end_token) {
        overlaps = true;
        break;
      }
    }
    if (!overlaps) kept.push_back(span);
  }
  std::sort(kept.begin(), kept.end(),
            [](const text::EntitySpan& a, const text::EntitySpan& b) {
              return a.begin_token < b.begin_token;
            });
  return kept;
}

void LocalEncode(const ModelBundle& bundle, StreamState& state,
                 StageContext& ctx) {
  (void)state;  // model-only by contract: the encoder reads no stream state
  if (ctx.pre_encoded) return;
  std::vector<const std::vector<text::Token>*> sentences;
  sentences.reserve(ctx.batch->size());
  for (const stream::Message& message : *ctx.batch) {
    sentences.push_back(&message.tokens);
  }
  // EncodeMany defaults dedup duplicate sentences within the batch and
  // consult the process-wide lm::EncodeCache when enabled — both return
  // the exact bytes a per-message recompute would, so the stage keeps the
  // pipeline's bit-identity contract.
  ctx.encoded = bundle.model().EncodeMany(sentences);
}

void IngestLocal(const ModelBundle& bundle, StreamState& state,
                 StageContext& ctx) {
  (void)bundle;
  // Snapshot before this batch lands: ExtractMentions scans these against
  // the delta trie to pick the ones to re-extract.
  ctx.old_ids = state.tweet_base.ids();
  for (const LocalNerOutput& out :
       IngestEncodedBatch(*ctx.batch, &ctx.encoded, &state)) {
    if (state.tweet_base.Find(out.message_id) != nullptr) {
      ctx.new_ids.push_back(out.message_id);
    }
    for (const std::string& surface : out.new_surfaces) {
      ctx.delta.Insert(SplitChar(surface, ' '));
    }
  }
}

void ExtractMentions(const ModelBundle& bundle, StreamState& state,
                     StageContext& ctx) {
  const size_t max_span = ctx.config->max_mention_span;
  std::vector<int64_t> ids = ctx.new_ids;
  if (ctx.delta.size() > 0) {
    // A form new to the trie changes an old sentence's longest matches
    // only where it occurs, and the greedy scan against the delta trie
    // finds a match exactly when some delta form occurs. So the delta
    // scan selects the old sentences to re-extract; its matches are
    // discarded.
    static const trace::TraceStage kStage("mention_extraction");
    trace::TraceSpan span(kStage);
    std::vector<char> selected(ctx.old_ids.size(), 0);
    ParallelFor(0, ctx.old_ids.size(), /*grain=*/16, [&](size_t i) {
      const stream::SentenceRecord* record =
          state.tweet_base.Find(ctx.old_ids[i]);
      selected[i] = record != nullptr &&
                    !ctx.delta.FindLongestMatches(MatchTokens(*record), max_span)
                         .empty();
    });
    for (size_t i = 0; i < ctx.old_ids.size(); ++i) {
      if (selected[i] != 0) ids.push_back(ctx.old_ids[i]);
    }
    CountTrieScans(ctx.old_ids.size());
  }
  ReExtractMentions(bundle.embedder(), max_span, ids, state);
}

void Evict(const ModelBundle& bundle, StreamState& state, StageContext& ctx) {
  const NerGlobalizerConfig& config = *ctx.config;
  if (config.window_messages == 0 ||
      state.tweet_base.size() <= config.window_messages) {
    return;
  }
  static const trace::TraceStage kStage("evict");
  trace::TraceSpan span(kStage);
  const size_t count = state.tweet_base.size() - config.window_messages;
  const std::vector<int64_t> evict_order(state.tweet_base.ids().begin(),
                                         state.tweet_base.ids().begin() +
                                             static_cast<std::ptrdiff_t>(count));
  const std::unordered_set<int64_t> evicted(evict_order.begin(),
                                            evict_order.end());

  // 1. Flush the final Global NER output of every departing message. Only
  // the surfaces holding a departing mention are read, each clustered from
  // its pool as it stands before removal: the partition a reader of the
  // whole window would compute after this batch's extraction.
  const std::vector<std::string> departing =
      state.candidate_base.SurfacesWithMentionsOf(evicted);
  const std::vector<std::vector<stream::CandidateEntry>> partitions =
      BuildCandidates(bundle.classifier(), state, config, departing);
  std::unordered_map<int64_t, std::vector<text::EntitySpan>> flushed;
  for (size_t s = 0; s < departing.size(); ++s) {
    const auto& pool = state.candidate_base.Mentions(departing[s]);
    for (const auto& entry : partitions[s]) {
      if (!entry.is_entity) continue;
      for (size_t mention_id : entry.mention_ids) {
        const stream::MentionRecord& m = pool[mention_id];
        if (evicted.count(m.message_id) == 0) continue;
        flushed[m.message_id].push_back(
            {m.begin_token, m.end_token, entry.type});
      }
    }
  }
  for (int64_t id : evict_order) {
    state.finalized.push_back({id, ResolveOverlaps(std::move(flushed[id]))});
  }

  // 2. Withdraw the departing messages' seed support. Surfaces that drop
  // to zero are exactly those no live message's local NER would seed — a
  // from-scratch rebuild of the window would never register them.
  std::vector<std::string> pruned;
  for (int64_t id : evict_order) {
    const stream::SentenceRecord* rec = state.tweet_base.Find(id);
    if (rec == nullptr) continue;
    for (const text::EntitySpan& span : text::DecodeBio(rec->local_bio)) {
      const std::string surface =
          SpanSurfaceString(rec->message, span.begin_token, span.end_token);
      auto it = state.seed_support.find(surface);
      if (it == state.seed_support.end()) continue;
      if (--it->second <= 0) {
        state.seed_support.erase(it);
        pruned.push_back(surface);
      }
    }
  }
  std::sort(pruned.begin(), pruned.end());
  pruned.erase(std::unique(pruned.begin(), pruned.end()), pruned.end());

  // 3. Live sentences that held a mention of a pruned surface must be
  // re-scanned: with the longer/other surface gone from the trie, the
  // greedy longest-match may now recover different (shorter) mentions in
  // the region it used to cover. Collect them before the pools change.
  std::vector<int64_t> rescan_ids;
  for (const std::string& surface : pruned) {
    for (const stream::MentionRecord& m : state.candidate_base.Mentions(surface)) {
      if (evicted.count(m.message_id) == 0) rescan_ids.push_back(m.message_id);
    }
  }
  std::sort(rescan_ids.begin(), rescan_ids.end());
  rescan_ids.erase(std::unique(rescan_ids.begin(), rescan_ids.end()),
                   rescan_ids.end());

  // 4. Drop evicted mentions from the pools that hold them (erasing the
  // pools this empties), and the pruned forms from the trie.
  state.candidate_base.RemoveMentionsOf(evicted, departing);
  for (const std::string& surface : pruned) {
    state.trie.Remove(SplitChar(surface, ' '));
  }

  // 5. Retire the records themselves.
  state.tweet_base.EvictOldest(count);
  state.evicted_messages += count;

  // 6. Re-extract the affected live sentences against the shrunk trie. Their
  // pruned-surface mentions go, which empties and erases those pools.
  ReExtractMentions(bundle.embedder(), config.max_mention_span, rescan_ids,
                    state);

  if (metrics::Enabled()) {
    auto& registry = metrics::MetricsRegistry::Global();
    static metrics::Counter* const evictions =
        registry.GetCounter("stream.evicted_messages");
    static metrics::Counter* const pruned_total =
        registry.GetCounter("stream.pruned_surfaces_total");
    static metrics::Gauge* const window_messages =
        registry.GetGauge("stream.window_messages");
    static metrics::Gauge* const window_surfaces =
        registry.GetGauge("stream.window_surfaces");
    static metrics::Gauge* const memory_bytes =
        registry.GetGauge("stream.memory_bytes");
    evictions->Increment(count);
    pruned_total->Increment(pruned.size());
    window_messages->Set(static_cast<double>(state.tweet_base.size()));
    window_surfaces->Set(static_cast<double>(state.trie.size()));
    memory_bytes->Set(static_cast<double>(state.MemoryUsage().total_bytes));
  }
}

}  // namespace nerglob::core::stages
