#ifndef NERGLOB_STREAM_TWEET_BASE_H_
#define NERGLOB_STREAM_TWEET_BASE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "stream/message.h"

namespace nerglob::io {
class TensorWriter;
class TensorReader;
}  // namespace nerglob::io

namespace nerglob::stream {

/// Per-sentence record stored after Local NER (Sec. IV): the message and
/// its local BIO labels. The paper's TweetBase also keeps the entity-aware
/// token embeddings; here they live only for the batch that encoded them
/// (core::stages::ReExtractMentions re-encodes an old sentence when it
/// gains a span). The BIO labels are a pure encoder output over the
/// message's tokens, so checkpoints store only the message and restore
/// re-encodes.
struct SentenceRecord {
  Message message;
  std::vector<int> local_bio;   ///< Local NER label per token
};

/// TweetBase: sentence records indexed by message id. The paper indexes by
/// (tweet id, sentence id); messages here are single sentences so a flat
/// id suffices.
///
/// Thread-safety: const methods (Find, size, ids, MemoryUsageBytes) may run
/// concurrently with each other; Put/FindMutable/EvictOldest must be
/// serialized against everything else. The pipeline writes on the batch
/// thread and only parallelizes read-only scans.
class TweetBase {
 public:
  TweetBase() = default;

  /// Adds a record; replaces any existing record with the same id.
  /// Amortized O(1) plus the record move.
  void Put(SentenceRecord record);

  /// nullptr if absent. Amortized O(1).
  const SentenceRecord* Find(int64_t id) const;
  SentenceRecord* FindMutable(int64_t id);

  size_t size() const { return order_.size(); }

  /// Ids in insertion order (stream order). Eviction removes ids from the
  /// front, so this is always the live window, oldest first.
  const std::vector<int64_t>& ids() const { return order_; }

  /// Removes the `count` oldest records (fewer if the base is smaller) and
  /// returns their ids, oldest first. O(count + remaining ids) per call —
  /// the id order is compacted once per eviction round, not per id.
  std::vector<int64_t> EvictOldest(size_t count);

  /// Approximate heap footprint in bytes: message text and tokens dominate;
  /// the estimate also counts BIO labels and gold spans (a string's buffer
  /// only once it spills to the heap). No record holds a float array, so
  /// the figure does not depend on the encoder width. O(records).
  size_t MemoryUsageBytes() const;

  /// Appends the full store as one checksummed record (io::kTagTweetBase),
  /// messages only, in insertion order, each as its text: its tokens are
  /// written only when they are not the tokenizer's output for it.
  Status Save(io::TensorWriter* writer) const;

  /// Restores a store saved with Save, re-tokenizing each message stored as
  /// its text, with empty BIO labels for StreamState::Load to re-encode. A
  /// repeated message id fails with InvalidArgument. Two-phase: `*this` is
  /// replaced only once the whole record validates, so a corrupt
  /// checkpoint leaves the store untouched.
  Status Load(io::TensorReader* reader);

 private:
  std::unordered_map<int64_t, SentenceRecord> records_;
  std::vector<int64_t> order_;
};

/// Span-list codec shared by every checkpoint record that stores spans
/// (gold spans here, finalized output in the pipeline-state and session
/// records): a varint count, then varint begin, end and type per span.
void PutSpans(io::TensorWriter* writer,
              const std::vector<text::EntitySpan>& spans);
/// False on a read failure, a count larger than the record remainder or an
/// out-of-range entity type.
bool GetSpans(io::TensorReader* reader, std::vector<text::EntitySpan>* spans);

}  // namespace nerglob::stream

#endif  // NERGLOB_STREAM_TWEET_BASE_H_
