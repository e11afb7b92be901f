#ifndef NERGLOB_CORE_STREAM_STATE_H_
#define NERGLOB_CORE_STREAM_STATE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/ner_globalizer_config.h"
#include "stream/candidate_base.h"
#include "stream/tweet_base.h"
#include "text/bio.h"
#include "trie/candidate_trie.h"

namespace nerglob::io {
class TensorWriter;
class TensorReader;
}  // namespace nerglob::io

namespace nerglob::lm {
class MicroBert;
}  // namespace nerglob::lm

namespace nerglob::core {

class PhraseEmbedder;

/// A message that left the sliding window: its id and the final Global NER
/// spans it had at eviction time (the checkpoint the streaming session
/// flushes downstream).
struct FinalizedMessage {
  int64_t message_id = 0;
  std::vector<text::EntitySpan> spans;
  friend bool operator==(const FinalizedMessage& a, const FinalizedMessage& b) {
    return a.message_id == b.message_id && a.spans == b.spans;
  }
};

/// Finalized-output codec shared by the pipeline-state and session
/// records: a varint count, then per message a zigzag varint id and its
/// spans (stream::PutSpans). GetFinalized is false on a read failure or a
/// malformed span list.
void PutFinalized(io::TensorWriter* writer,
                  const std::vector<FinalizedMessage>& finalized);
bool GetFinalized(io::TensorReader* reader,
                  std::vector<FinalizedMessage>* finalized);

/// Per-component heap accounting for the pipeline's stream state, in
/// approximate bytes. With window_messages > 0 every component is bounded
/// by the window content; unbounded otherwise.
struct PipelineMemoryUsage {
  size_t tweet_base_bytes = 0;
  size_t candidate_base_bytes = 0;
  size_t trie_bytes = 0;
  /// Footprint of the process-wide lm::EncodeCache (0 when disabled).
  /// Reported for the operator's whole-process picture but NOT summed
  /// into total_bytes: the cache is shared, so adding it to every
  /// session's total would count it once per live session.
  size_t global_encode_cache_bytes = 0;
  size_t total_bytes = 0;
};

/// All mutable state one stream session accumulates: the three stores
/// (TweetBase, CTrie, CandidateBase), the seed support that drives
/// eviction, and the finalized-output buffer. The counterpart of the
/// immutable ModelBundle in the model/session split — NerGlobalizer is a
/// thin engine owning one StreamState and borrowing one const ModelBundle.
///
/// Serializable: Save writes only what the live window cannot give back
/// (the messages, the finalized buffer and the evicted count; integers as
/// varints). A message's tokens are the tokenizer's output for its text,
/// its local BIO labels a pure function of the encoder and those tokens,
/// the CTrie and the seed support a function of every live message's local
/// BIO (SeedLocalSpans), and the mention pools a function of the tokens,
/// the trie, the encoder and the PhraseEmbedder
/// (stages::ReExtractMentions keeps them so), so Save omits all of them
/// and Load recomputes them bit-identically; a restored
/// session's pools and Predictions() at every PipelineStage equal the
/// uninterrupted run's.
struct StreamState {
  stream::TweetBase tweet_base;
  /// Holds exactly the matching forms of the live local-NER spans.
  trie::CandidateTrie trie;
  stream::CandidateBase candidate_base;
  /// Per-surface count of live local-NER spans that seeded it. A surface
  /// whose support reaches zero under eviction is pruned from the CTrie and
  /// the CandidateBase — exactly the surfaces a from-scratch rebuild of the
  /// window would never have seeded.
  std::unordered_map<std::string, int> seed_support;
  /// Predictions flushed by eviction, awaiting TakeFinalized().
  std::vector<FinalizedMessage> finalized;

  size_t evicted_messages = 0;

  /// Seeds the CTrie and the seed support with one live record's local
  /// spans (the decode of its local BIO): each span's matching form joins
  /// the trie and adds one unit of support to its surface string. Returns
  /// the spans and appends the surfaces new to the trie to `new_surfaces`
  /// (may be null). Ingest and Load both seed through here, so the trie
  /// and the support are one function of the live window.
  std::vector<text::EntitySpan> SeedLocalSpans(
      const stream::SentenceRecord& record,
      std::vector<std::string>* new_surfaces);

  /// Approximate heap footprint per store. O(state size).
  PipelineMemoryUsage MemoryUsage() const;

  /// Appends the state as two checksummed records (tweet base, pipeline
  /// state), without encoder outputs, mention pools, the trie or the seed
  /// support.
  Status Save(io::TensorWriter* writer) const;

  /// Restores a state saved with Save. Reads both records
  /// (TweetBase::Load re-tokenizes the messages stored as text), then
  /// re-encodes the live window with `model` (EncodeMany,
  /// config.process_batch_size messages per call, under the
  /// `restore_encode` trace stage), seeds the trie and the seed support
  /// from every live record in stream order (SeedLocalSpans), and
  /// re-extracts every live sentence's mentions with `embedder` from those
  /// encodings (stages::ReExtractMentions, config.max_mention_span), which
  /// are then dropped. Two-phase:
  /// `*this` is replaced only once every record validates, so a corrupt
  /// checkpoint leaves the state untouched.
  Status Load(io::TensorReader* reader, const lm::MicroBert& model,
              const PhraseEmbedder& embedder,
              const NerGlobalizerConfig& config);
};

}  // namespace nerglob::core

#endif  // NERGLOB_CORE_STREAM_STATE_H_
