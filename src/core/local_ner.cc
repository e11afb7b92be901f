#include "core/local_ner.h"

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
    std::vector<lm::EncodeResult>* encoded, stream::TweetBase* tweet_base,
    trie::CandidateTrie* trie) {
  NERGLOB_CHECK_EQ(encoded->size(), batch.size());
  std::vector<lm::EncodeResult>& encoded_batch = *encoded;
  // Serial merge, input order: TweetBase puts and trie inserts happen
  // exactly as in a sequential pass, so new-surface discovery order and
  // all downstream state are independent of the thread count (and of the
  // encode batching).
  std::vector<LocalNerOutput> outputs;
  outputs.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const stream::Message& message = batch[i];
    LocalNerOutput out;
    out.message_id = message.id;
    if (message.tokens.empty()) {
      outputs.push_back(std::move(out));
      continue;
    }
    lm::EncodeResult& result = encoded_batch[i];

    stream::SentenceRecord record;
    record.message = message;
    record.token_embeddings = std::move(result.embeddings);
    record.local_bio = result.bio_labels;
    tweet_base->Put(std::move(record));

    out.local_spans = text::DecodeBio(result.bio_labels);
    for (const text::EntitySpan& span : out.local_spans) {
      auto tokens = SpanMatchTokens(message, span.begin_token, span.end_token);
      if (trie->Insert(tokens)) {
        out.new_surfaces.push_back(
            SpanSurfaceString(message, span.begin_token, span.end_token));
      }
    }
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
    size_t span_count = 0, surface_count = 0;
    for (const LocalNerOutput& out : outputs) {
      span_count += out.local_spans.size();
      surface_count += out.new_surfaces.size();
    }
    sentences->Increment(batch.size());
    local_spans->Increment(span_count);
    new_surfaces->Increment(surface_count);
  }
  return outputs;
}

}  // namespace nerglob::core
