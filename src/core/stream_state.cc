#include "core/stream_state.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"
#include "common/trace.h"
#include "core/local_ner.h"
#include "core/phrase_embedder.h"
#include "core/stages.h"
#include "io/tensor_io.h"
#include "lm/encode_cache.h"
#include "lm/micro_bert.h"

namespace nerglob::core {

void PutFinalized(io::TensorWriter* writer,
                  const std::vector<FinalizedMessage>& finalized) {
  writer->PutVarint(finalized.size());
  for (const FinalizedMessage& fm : finalized) {
    writer->PutVarint(io::ZigZag(fm.message_id));
    stream::PutSpans(writer, fm.spans);
  }
}

bool GetFinalized(io::TensorReader* reader,
                  std::vector<FinalizedMessage>* finalized) {
  uint64_t count = 0;
  if (!reader->GetVarint(&count) || count > reader->RemainingInRecord()) {
    return false;
  }
  finalized->resize(count);
  for (FinalizedMessage& fm : *finalized) {
    uint64_t id = 0;
    if (!reader->GetVarint(&id) || !stream::GetSpans(reader, &fm.spans)) {
      return false;
    }
    fm.message_id = io::UnZigZag(id);
  }
  return true;
}

std::vector<text::EntitySpan> StreamState::SeedLocalSpans(
    const stream::SentenceRecord& record,
    std::vector<std::string>* new_surfaces) {
  std::vector<text::EntitySpan> spans = text::DecodeBio(record.local_bio);
  for (const text::EntitySpan& span : spans) {
    std::string surface =
        SpanSurfaceString(record.message, span.begin_token, span.end_token);
    if (trie.Insert(SpanMatchTokens(record.message, span.begin_token,
                                    span.end_token)) &&
        new_surfaces != nullptr) {
      new_surfaces->push_back(surface);
    }
    ++seed_support[std::move(surface)];
  }
  return spans;
}

PipelineMemoryUsage StreamState::MemoryUsage() const {
  PipelineMemoryUsage usage;
  usage.tweet_base_bytes = tweet_base.MemoryUsageBytes();
  usage.candidate_base_bytes = candidate_base.MemoryUsageBytes();
  usage.trie_bytes = trie.MemoryUsageBytes();
  usage.total_bytes =
      usage.tweet_base_bytes + usage.candidate_base_bytes + usage.trie_bytes;
  // Shared across sessions, so reported beside (not inside) total_bytes.
  if (const lm::EncodeCache* cache = lm::EncodeCache::Global()) {
    usage.global_encode_cache_bytes = cache->MemoryUsageBytes();
  }
  return usage;
}

Status StreamState::Save(io::TensorWriter* writer) const {
  NERGLOB_RETURN_IF_ERROR(tweet_base.Save(writer));
  PutFinalized(writer, finalized);
  writer->PutVarint(evicted_messages);
  return writer->EndRecord(io::kTagPipelineState);
}

Status StreamState::Load(io::TensorReader* reader, const lm::MicroBert& model,
                         const PhraseEmbedder& embedder,
                         const NerGlobalizerConfig& config) {
  StreamState restored;
  NERGLOB_RETURN_IF_ERROR(restored.tweet_base.Load(reader));
  NERGLOB_RETURN_IF_ERROR(reader->NextRecord(io::kTagPipelineState));
  auto fail = [&](const char* what) {
    return reader->Corrupt("stream-state record", what);
  };
  if (!GetFinalized(reader, &restored.finalized)) return fail("finalized");
  uint64_t evicted = 0;
  if (!reader->GetVarint(&evicted)) return fail("counters");
  restored.evicted_messages = static_cast<size_t>(evicted);
  NERGLOB_RETURN_IF_ERROR(reader->ExpectRecordEnd());

  // Re-encode the live window. EncodeMany is batch-composition invariant
  // (and exact under dedup and the encode cache), so each record gets the
  // bytes LocalEncode produced; chunking only bounds the transient logits.
  // The token embeddings live only until the re-extraction below.
  const std::vector<int64_t>& ids = restored.tweet_base.ids();
  std::vector<Matrix> token_embeddings(ids.size());
  {
    static const trace::TraceStage kStage("restore_encode");
    trace::TraceSpan span(kStage);
    const size_t chunk = std::max<size_t>(config.process_batch_size, 1);
    for (size_t begin = 0; begin < ids.size(); begin += chunk) {
      const size_t end = std::min(ids.size(), begin + chunk);
      std::vector<const std::vector<text::Token>*> sentences;
      for (size_t i = begin; i < end; ++i) {
        sentences.push_back(&restored.tweet_base.Find(ids[i])->message.tokens);
      }
      std::vector<lm::EncodeResult> encoded = model.EncodeMany(sentences);
      for (size_t i = begin; i < end; ++i) {
        token_embeddings[i] = std::move(encoded[i - begin].embeddings);
        restored.tweet_base.FindMutable(ids[i])->local_bio =
            std::move(encoded[i - begin].bio_labels);
      }
    }
  }
  for (int64_t id : ids) {
    restored.SeedLocalSpans(*restored.tweet_base.Find(id), nullptr);
  }
  std::vector<const Matrix*> encoded(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) encoded[i] = &token_embeddings[i];
  stages::ReExtractMentions(model, embedder, config.max_mention_span, ids,
                            encoded, restored);
  token_embeddings = {};

  *this = std::move(restored);
  return Status::OK();
}

}  // namespace nerglob::core
