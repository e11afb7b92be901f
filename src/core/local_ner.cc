#include "core/local_ner.h"

#include <unordered_set>

#include "common/check.h"
#include "common/metrics.h"

namespace nerglob::core {

std::vector<std::string> SpanMatchTokens(const stream::Message& message,
                                         size_t begin_token, size_t end_token) {
  NERGLOB_CHECK_LE(end_token, message.tokens.size());
  std::vector<std::string> out;
  out.reserve(end_token - begin_token);
  for (size_t t = begin_token; t < end_token; ++t) {
    out.push_back(message.tokens[t].match);
  }
  return out;
}

std::string SpanSurfaceString(const stream::Message& message,
                              size_t begin_token, size_t end_token) {
  std::string surface;
  for (size_t t = begin_token; t < end_token; ++t) {
    if (!surface.empty()) surface += ' ';
    surface += message.tokens[t].match;
  }
  return surface;
}

std::vector<LocalNerOutput> IngestEncodedBatch(
    const std::vector<stream::Message>& batch,
    std::vector<lm::EncodeResult>* encoded, StreamState* state) {
  NERGLOB_CHECK_EQ(encoded->size(), batch.size());
  std::vector<lm::EncodeResult>& encoded_batch = *encoded;
  // Serial merge, input order: TweetBase puts and trie inserts happen
  // exactly as in a sequential pass, so new-surface discovery order and
  // all downstream state are independent of the thread count (and of the
  // encode batching).
  std::vector<LocalNerOutput> outputs;
  outputs.reserve(batch.size());
  std::unordered_set<int64_t> batch_ids;
  size_t duplicates = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const stream::Message& message = batch[i];
    // A repeated id would replace a live record whose support and
    // mentions stay behind, so the window would no longer derive them.
    if (!batch_ids.insert(message.id).second ||
        state->tweet_base.Find(message.id) != nullptr) {
      ++duplicates;
      continue;
    }
    LocalNerOutput out;
    out.message_id = message.id;
    out.batch_index = i;
    if (message.tokens.empty()) {
      outputs.push_back(std::move(out));
      continue;
    }
    lm::EncodeResult& result = encoded_batch[i];

    stream::SentenceRecord record;
    record.message = message;
    record.local_bio = std::move(result.bio_labels);
    state->tweet_base.Put(std::move(record));
    out.local_spans = state->SeedLocalSpans(
        *state->tweet_base.Find(message.id), &out.new_surfaces);
    outputs.push_back(std::move(out));
  }
  if (metrics::Enabled()) {
    auto& registry = metrics::MetricsRegistry::Global();
    static metrics::Counter* const sentences =
        registry.GetCounter("pipeline.sentences_total");
    static metrics::Counter* const local_spans =
        registry.GetCounter("pipeline.local_spans_total");
    static metrics::Counter* const new_surfaces =
        registry.GetCounter("pipeline.new_surfaces_total");
    static metrics::Counter* const dropped =
        registry.GetCounter("pipeline.duplicate_messages_dropped_total");
    size_t span_count = 0, surface_count = 0;
    for (const LocalNerOutput& out : outputs) {
      span_count += out.local_spans.size();
      surface_count += out.new_surfaces.size();
    }
    sentences->Increment(batch.size());
    local_spans->Increment(span_count);
    new_surfaces->Increment(surface_count);
    dropped->Increment(duplicates);
  }
  return outputs;
}

}  // namespace nerglob::core
