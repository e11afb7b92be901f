#include "core/stream_state.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"
#include "common/trace.h"
#include "core/phrase_embedder.h"
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
  NERGLOB_RETURN_IF_ERROR(candidate_base.Save(writer));

  // Trie: the registered form set fully determines scan behavior; Forms()
  // returns it sorted, so the record bytes are history-independent.
  const std::vector<std::vector<std::string>> forms = trie.Forms();
  writer->PutVarint(forms.size());
  for (const auto& form : forms) {
    writer->PutVarint(form.size());
    for (const std::string& tok : form) writer->PutString(tok);
  }
  NERGLOB_RETURN_IF_ERROR(writer->EndRecord(io::kTagTrie));

  // Pipeline bookkeeping. Unordered containers are serialized in sorted
  // key order so identical states write identical bytes.
  writer->PutVarint(local_type_votes.size());
  for (const auto& [surface, votes] : local_type_votes) {
    writer->PutString(surface);
    for (int v : votes) writer->PutVarint(io::ZigZag(v));
  }
  writer->PutVarint(dirty_surfaces.size());
  for (const std::string& s : dirty_surfaces) writer->PutString(s);

  std::vector<std::pair<std::string, int>> support(seed_support.begin(),
                                                   seed_support.end());
  std::sort(support.begin(), support.end());
  writer->PutVarint(support.size());
  for (const auto& [surface, count] : support) {
    writer->PutString(surface);
    writer->PutVarint(io::ZigZag(count));
  }

  PutFinalized(writer, finalized);
  writer->PutVarint(evicted_messages);
  return writer->EndRecord(io::kTagPipelineState);
}

Status StreamState::Load(io::TensorReader* reader, const lm::MicroBert& model,
                         const PhraseEmbedder& embedder,
                         size_t encode_batch_size) {
  StreamState restored;
  NERGLOB_RETURN_IF_ERROR(restored.tweet_base.Load(reader));

  // Re-encode the live window. EncodeMany is batch-composition invariant
  // (and exact under dedup and the encode cache), so each record gets the
  // bytes LocalEncode produced; chunking only bounds the transient logits.
  // Results are moved into the records, never copied.
  {
    static const trace::TraceStage kStage("restore_encode");
    trace::TraceSpan span(kStage);
    const std::vector<int64_t>& ids = restored.tweet_base.ids();
    const size_t chunk = std::max<size_t>(encode_batch_size, 1);
    for (size_t begin = 0; begin < ids.size(); begin += chunk) {
      std::vector<stream::SentenceRecord*> records;
      std::vector<const std::vector<text::Token>*> sentences;
      for (size_t i = begin; i < std::min(ids.size(), begin + chunk); ++i) {
        records.push_back(restored.tweet_base.FindMutable(ids[i]));
        sentences.push_back(&records.back()->message.tokens);
      }
      std::vector<lm::EncodeResult> encoded = model.EncodeMany(sentences);
      for (size_t i = 0; i < records.size(); ++i) {
        records[i]->token_embeddings = std::move(encoded[i].embeddings);
        records[i]->local_bio = std::move(encoded[i].bio_labels);
      }
    }
  }

  auto fail = [&](const char* what) {
    return reader->Corrupt("stream-state record", what);
  };

  // The same span rule mention extraction applies: a mention must start
  // inside its sentence's encoded prefix and is pooled over the part of
  // the span the encoder kept. Validating here turns a crafted record into
  // a typed error instead of a failed CHECK in the embedder.
  const std::string& path = reader->path();
  const stream::TweetBase& tweets = restored.tweet_base;
  auto embed = [&](const stream::MentionRecord& m, Matrix* out) -> Status {
    const stream::SentenceRecord* rec = tweets.Find(m.message_id);
    if (rec == nullptr || m.begin_token >= m.end_token ||
        m.end_token > rec->message.tokens.size() ||
        m.begin_token >= rec->token_embeddings.rows()) {
      return Status::InvalidArgument(StrFormat(
          "'%s': corrupt candidate-base record (mention [%zu, %zu) of "
          "message %lld has no span in the re-encoded window)",
          path.c_str(), m.begin_token, m.end_token,
          static_cast<long long>(m.message_id)));
    }
    embedder.EmbedInto(rec->token_embeddings, m.begin_token,
                       std::min(m.end_token, rec->token_embeddings.rows()), out);
    return Status::OK();
  };
  NERGLOB_RETURN_IF_ERROR(restored.candidate_base.Load(reader, embed));

  NERGLOB_RETURN_IF_ERROR(reader->NextRecord(io::kTagTrie));
  uint64_t num_forms = 0;
  if (!reader->GetVarint(&num_forms)) return fail("trie count");
  for (uint64_t i = 0; i < num_forms; ++i) {
    uint64_t num_tokens = 0;
    if (!reader->GetVarint(&num_tokens) ||
        num_tokens > reader->RemainingInRecord()) {
      return fail("trie form");
    }
    std::vector<std::string> form(num_tokens);
    for (std::string& tok : form) {
      if (!reader->GetString(&tok)) return fail("trie token");
    }
    restored.trie.Insert(form);
  }
  NERGLOB_RETURN_IF_ERROR(reader->ExpectRecordEnd());

  NERGLOB_RETURN_IF_ERROR(reader->NextRecord(io::kTagPipelineState));
  uint64_t count = 0;
  if (!reader->GetVarint(&count)) return fail("votes count");
  for (uint64_t i = 0; i < count; ++i) {
    std::string surface;
    if (!reader->GetString(&surface)) return fail("vote surface");
    std::array<int, text::kNumEntityTypes> votes{};
    for (int& v : votes) {
      uint64_t raw = 0;
      if (!reader->GetVarint(&raw)) return fail("vote");
      v = static_cast<int>(io::UnZigZag(raw));
    }
    restored.local_type_votes.emplace(std::move(surface), votes);
  }

  if (!reader->GetVarint(&count) || count > reader->RemainingInRecord()) {
    return fail("dirty count");
  }
  restored.dirty_surfaces.resize(count);
  for (std::string& s : restored.dirty_surfaces) {
    if (!reader->GetString(&s)) return fail("dirty surface");
  }

  if (!reader->GetVarint(&count)) return fail("support count");
  for (uint64_t i = 0; i < count; ++i) {
    std::string surface;
    uint64_t support = 0;
    if (!reader->GetString(&surface) || !reader->GetVarint(&support)) {
      return fail("support entry");
    }
    restored.seed_support.emplace(std::move(surface),
                                  static_cast<int>(io::UnZigZag(support)));
  }

  if (!GetFinalized(reader, &restored.finalized)) return fail("finalized");
  uint64_t evicted = 0;
  if (!reader->GetVarint(&evicted)) return fail("counters");
  restored.evicted_messages = static_cast<size_t>(evicted);
  NERGLOB_RETURN_IF_ERROR(reader->ExpectRecordEnd());

  *this = std::move(restored);
  return Status::OK();
}

}  // namespace nerglob::core
