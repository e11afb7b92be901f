#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>

#include "common/check.h"
#include "common/metrics.h"
#include "io/tensor_io.h"
#include "stream/candidate_base.h"
#include "stream/message.h"
#include "stream/tweet_base.h"
#include "text/tokenizer.h"

namespace nerglob::stream {

StreamSource::StreamSource(std::vector<Message> messages, size_t batch_size)
    : messages_(std::move(messages)), batch_size_(batch_size) {
  NERGLOB_CHECK_GT(batch_size, 0u);
}

// Exhaustion contract (relied on by StreamingSession::Run and by
// serve::SessionManager frontends that re-poll sources between Reset()s):
// once next_ reaches the end, every further NextBatch() returns an empty
// vector in O(1) — no copies, no partial batches, no failure path — and
// HasNext() stays false. A driver that keeps polling an exhausted source
// therefore does no work per poll and cannot spin on stale data; the only
// way to make the source productive again is Reset(), which rewinds to the
// first message and replays the *identical* batch sequence (same
// boundaries, same order). Pinned by StreamSourceTest.
// ExhaustedSourcePollsAreFreeAndResetReplaysIdentically.
std::vector<Message> StreamSource::NextBatch() {
  if (!HasNext()) return {};
  const size_t count = std::min(batch_size_, messages_.size() - next_);
  std::vector<Message> batch(messages_.begin() + static_cast<std::ptrdiff_t>(next_),
                             messages_.begin() + static_cast<std::ptrdiff_t>(next_ + count));
  next_ += count;
  return batch;
}

void TweetBase::Put(SentenceRecord record) {
  const int64_t id = record.message.id;
  auto it = records_.find(id);
  if (it == records_.end()) {
    order_.push_back(id);
    records_.emplace(id, std::move(record));
  } else {
    it->second = std::move(record);
  }
}

const SentenceRecord* TweetBase::Find(int64_t id) const {
  auto it = records_.find(id);
  return it == records_.end() ? nullptr : &it->second;
}

SentenceRecord* TweetBase::FindMutable(int64_t id) {
  auto it = records_.find(id);
  return it == records_.end() ? nullptr : &it->second;
}

std::vector<int64_t> TweetBase::EvictOldest(size_t count) {
  count = std::min(count, order_.size());
  std::vector<int64_t> evicted(order_.begin(),
                               order_.begin() + static_cast<std::ptrdiff_t>(count));
  for (int64_t id : evicted) records_.erase(id);
  order_.erase(order_.begin(), order_.begin() + static_cast<std::ptrdiff_t>(count));
  return evicted;
}

namespace {

bool GetEntityType(io::TensorReader* r, text::EntityType* type) {
  uint64_t raw = 0;
  if (!r->GetVarint(&raw)) return false;
  if (raw >= static_cast<uint64_t>(text::kNumEntityTypes)) {
    // Enum range is validated even though the checksum already passed —
    // a handcrafted file must not produce out-of-range enum values.
    return false;
  }
  *type = static_cast<text::EntityType>(raw);
  return true;
}

// A message is stored as its text. The token field is 0 when the tokens
// are the tokenizer's output for that text, which restore re-derives;
// otherwise it is n+1 followed by the n tokens, so hand-built tokens
// (CoNLL-style data, tests) still round-trip exactly. A token's spelling
// is a slice of the text, so only its matching form, offsets and kind are
// stored.
void PutMessage(io::TensorWriter* w, const Message& msg) {
  w->PutVarint(io::ZigZag(msg.id));
  w->PutString(msg.text);
  w->PutVarint(io::ZigZag(msg.topic_id));
  if (msg.tokens == text::Tokenizer().Tokenize(msg.text)) {
    w->PutVarint(0);
  } else {
    static metrics::Counter* const explicit_tokens =
        metrics::MetricsRegistry::Global().GetCounter(
            "checkpoint.explicit_token_messages_total");
    explicit_tokens->Increment();
    w->PutVarint(msg.tokens.size() + 1);
    for (const text::Token& tok : msg.tokens) {
      w->PutString(tok.match);
      w->PutVarint(tok.begin);
      w->PutVarint(tok.end);
      w->PutVarint(static_cast<uint64_t>(tok.kind));
    }
  }
  PutSpans(w, msg.gold_spans);
}

bool GetMessage(io::TensorReader* r, Message* msg) {
  uint64_t id = 0, topic = 0, token_field = 0;
  if (!r->GetVarint(&id) || !r->GetString(&msg->text) ||
      msg->text.size() > UINT32_MAX || !r->GetVarint(&topic) ||
      !r->GetVarint(&token_field)) {
    return false;
  }
  msg->id = io::UnZigZag(id);
  msg->topic_id = static_cast<int>(io::UnZigZag(topic));
  if (token_field == 0) {
    msg->tokens = text::Tokenizer().Tokenize(msg->text);
  } else {
    if (token_field - 1 > r->RemainingInRecord()) return false;
    msg->tokens.resize(token_field - 1);
    for (text::Token& tok : msg->tokens) {
      uint64_t begin = 0, end = 0, kind = 0;
      if (!r->GetString(&tok.match) || !r->GetVarint(&begin) ||
          !r->GetVarint(&end) || !r->GetVarint(&kind) ||
          kind > static_cast<uint64_t>(text::TokenKind::kPunct) ||
          begin > end || end > msg->text.size()) {
        return false;
      }
      tok.begin = static_cast<uint32_t>(begin);
      tok.end = static_cast<uint32_t>(end);
      tok.kind = static_cast<text::TokenKind>(kind);
    }
  }
  return GetSpans(r, &msg->gold_spans);
}

// An SSO string's buffer lies inside its owner's sizeof; only a string
// that spilled to the heap owns extra bytes.
size_t HeapBytes(const std::string& s) {
  return s.capacity() > std::string().capacity() ? s.capacity() : 0;
}

}  // namespace

void PutSpans(io::TensorWriter* writer,
              const std::vector<text::EntitySpan>& spans) {
  writer->PutVarint(spans.size());
  for (const text::EntitySpan& span : spans) {
    writer->PutVarint(span.begin_token);
    writer->PutVarint(span.end_token);
    writer->PutVarint(static_cast<uint64_t>(span.type));
  }
}

bool GetSpans(io::TensorReader* reader, std::vector<text::EntitySpan>* spans) {
  uint64_t count = 0;
  if (!reader->GetVarint(&count) || count > reader->RemainingInRecord()) {
    return false;
  }
  spans->resize(count);
  for (text::EntitySpan& span : *spans) {
    uint64_t begin = 0, end = 0;
    if (!reader->GetVarint(&begin) || !reader->GetVarint(&end) ||
        !GetEntityType(reader, &span.type)) {
      return false;
    }
    span.begin_token = begin;
    span.end_token = end;
  }
  return true;
}

Status TweetBase::Save(io::TensorWriter* writer) const {
  writer->PutVarint(order_.size());
  for (int64_t id : order_) PutMessage(writer, records_.at(id).message);
  return writer->EndRecord(io::kTagTweetBase);
}

Status TweetBase::Load(io::TensorReader* reader) {
  NERGLOB_RETURN_IF_ERROR(reader->NextRecord(io::kTagTweetBase));
  auto fail = [&](const char* what) {
    return reader->Corrupt("tweet-base record", what);
  };
  uint64_t count = 0;
  if (!reader->GetVarint(&count)) return fail("count");
  TweetBase restored;
  for (uint64_t i = 0; i < count; ++i) {
    SentenceRecord rec;
    if (!GetMessage(reader, &rec.message)) return fail("message");
    // Put would replace the earlier record and restore one message fewer.
    if (restored.Find(rec.message.id) != nullptr) {
      return fail("duplicate message id");
    }
    restored.Put(std::move(rec));
  }
  NERGLOB_RETURN_IF_ERROR(reader->ExpectRecordEnd());
  *this = std::move(restored);
  return Status::OK();
}

size_t TweetBase::MemoryUsageBytes() const {
  size_t bytes = sizeof(TweetBase) + order_.capacity() * sizeof(int64_t);
  for (const auto& [id, rec] : records_) {
    bytes += sizeof(int64_t) + sizeof(SentenceRecord);
    bytes += rec.local_bio.capacity() * sizeof(int);
    bytes += HeapBytes(rec.message.text);
    bytes += rec.message.tokens.capacity() * sizeof(text::Token);
    for (const auto& tok : rec.message.tokens) bytes += HeapBytes(tok.match);
    bytes += rec.message.gold_spans.capacity() * sizeof(text::EntitySpan);
  }
  return bytes;
}

namespace {

// Leaked function-local statics: safe empty sentinels without static
// destruction ordering concerns.
const std::vector<MentionRecord>& EmptyMentions() {
  static const auto& kEmpty = *new std::vector<MentionRecord>();
  return kEmpty;
}

/// [first, last) positions of the mentions in canonical-order `pool` whose
/// message id lies in `bounds` (the least and greatest id of a set): the
/// only ones that can belong to the set. O(log pool).
std::pair<size_t, size_t> IdRange(const std::vector<MentionRecord>& pool,
                                  std::pair<int64_t, int64_t> bounds) {
  const auto first = std::partition_point(
      pool.begin(), pool.end(), [&](const MentionRecord& m) {
        return m.message_id < bounds.first;
      });
  const auto last =
      std::partition_point(first, pool.end(), [&](const MentionRecord& m) {
        return m.message_id <= bounds.second;
      });
  return {static_cast<size_t>(first - pool.begin()),
          static_cast<size_t>(last - pool.begin())};
}

std::pair<int64_t, int64_t> IdBounds(const std::unordered_set<int64_t>& ids) {
  const auto [lo, hi] = std::minmax_element(ids.begin(), ids.end());
  return {*lo, *hi};
}

}  // namespace

void CandidateBase::AddMentions(const std::string& surface,
                                std::vector<MentionRecord> mentions) {
  if (mentions.empty()) return;
  std::stable_sort(mentions.begin(), mentions.end(), CanonicalLess);
  std::vector<MentionRecord>& pool = by_surface_[surface];
  const auto old_size = static_cast<std::ptrdiff_t>(pool.size());
  pool.insert(pool.end(), std::make_move_iterator(mentions.begin()),
              std::make_move_iterator(mentions.end()));
  std::inplace_merge(pool.begin(), pool.begin() + old_size, pool.end(),
                     CanonicalLess);
}

Matrix CandidateBase::MeanEmbedding(const std::string& surface) const {
  Matrix mean;
  size_t count = 0;
  for (const MentionRecord& m : Mentions(surface)) {
    if (m.local_embedding.empty()) continue;
    if (count++ == 0) {
      mean = m.local_embedding;
    } else {
      mean.AddInPlace(m.local_embedding);
    }
  }
  if (count > 0) mean.Scale(1.0f / static_cast<float>(count));
  return mean;
}

const std::vector<MentionRecord>& CandidateBase::Mentions(
    const std::string& surface) const {
  auto it = by_surface_.find(surface);
  return it == by_surface_.end() ? EmptyMentions() : it->second;
}

std::vector<std::string> CandidateBase::surfaces() const {
  std::vector<std::string> out;
  out.reserve(by_surface_.size());
  for (const auto& [surface, pool] : by_surface_) out.push_back(surface);
  return out;
}

size_t CandidateBase::TotalMentions() const {
  size_t total = 0;
  for (const auto& [surface, pool] : by_surface_) total += pool.size();
  return total;
}

std::vector<std::string> CandidateBase::SurfacesWithMentionsOf(
    const std::unordered_set<int64_t>& ids) const {
  std::vector<std::string> holding;
  if (ids.empty()) return holding;
  const std::pair<int64_t, int64_t> bounds = IdBounds(ids);
  for (const auto& [surface, pool] : by_surface_) {
    const auto [first, last] = IdRange(pool, bounds);
    for (size_t i = first; i < last; ++i) {
      if (ids.count(pool[i].message_id) > 0) {
        holding.push_back(surface);
        break;
      }
    }
  }
  return holding;
}

std::vector<MentionRecord> CandidateBase::RemoveMentionsOf(
    const std::unordered_set<int64_t>& ids,
    const std::vector<std::string>& surfaces) {
  std::vector<MentionRecord> removed;
  if (ids.empty()) return removed;
  const std::pair<int64_t, int64_t> bounds = IdBounds(ids);
  for (const std::string& surface : surfaces) {
    auto it = by_surface_.find(surface);
    if (it == by_surface_.end()) continue;
    std::vector<MentionRecord>& pool = it->second;
    const auto [first, last] = IdRange(pool, bounds);
    const auto end = pool.begin() + static_cast<std::ptrdiff_t>(last);
    auto kept = pool.begin() + static_cast<std::ptrdiff_t>(first);
    for (auto m = kept; m != end; ++m) {
      if (ids.count(m->message_id) > 0) {
        removed.push_back(std::move(*m));
      } else {
        if (kept != m) *kept = std::move(*m);
        ++kept;
      }
    }
    pool.erase(kept, end);
    if (pool.empty()) by_surface_.erase(it);
  }
  return removed;
}

size_t CandidateBase::MemoryUsageBytes() const {
  size_t bytes = sizeof(CandidateBase);
  for (const auto& [surface, pool] : by_surface_) {
    bytes += sizeof(std::string) + HeapBytes(surface) + sizeof(pool);
    bytes += pool.capacity() * sizeof(MentionRecord);
    for (const MentionRecord& m : pool) {
      bytes += m.local_embedding.size() * sizeof(float);
    }
  }
  return bytes;
}

}  // namespace nerglob::stream
