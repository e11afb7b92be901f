#ifndef NERGLOB_CORE_LOCAL_NER_H_
#define NERGLOB_CORE_LOCAL_NER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "lm/micro_bert.h"
#include "stream/message.h"
#include "stream/tweet_base.h"
#include "text/bio.h"
#include "trie/candidate_trie.h"

namespace nerglob::core {

/// Result of local NER for one message.
struct LocalNerOutput {
  int64_t message_id = 0;
  /// Local BIO decode: the spans a conventional NER system would emit.
  std::vector<text::EntitySpan> local_spans;
  /// Surface forms (matching form, space-joined) newly added to the trie.
  std::vector<std::string> new_surfaces;
};

/// Local NER (Sec. IV) is the fine-tuned encoder run over each message in
/// isolation (lm::MicroBert::EncodeMany) followed by this serial ingest:
/// it stores each sentence record (entity-aware token embeddings + BIO
/// labels) in the TweetBase and registers the detected surface forms, the
/// seed entity candidates, in the CandidateTrie. The encoder is a weak
/// labeller here: its spans seed the CTrie and its embeddings feed the
/// Phrase Embedder, but its labels are not the system output.
///
/// Merges the pre-computed encode results into the TweetBase/CTrie in
/// input order (so new-surface discovery order and all downstream state
/// are independent of how — and where — the encoding ran).
/// `(*encoded)[i]` must be the encoder output for `batch[i].tokens`
/// (default-constructed for empty messages); its embeddings are consumed
/// (moved into the stored SentenceRecords).
std::vector<LocalNerOutput> IngestEncodedBatch(
    const std::vector<stream::Message>& batch,
    std::vector<lm::EncodeResult>* encoded, stream::TweetBase* tweet_base,
    trie::CandidateTrie* trie);

/// The matching-form token sequence of a span ("andy beshear" tokens).
std::vector<std::string> SpanMatchTokens(const stream::Message& message,
                                         size_t begin_token, size_t end_token);

/// Space-joined surface string of a span.
std::string SpanSurfaceString(const stream::Message& message,
                              size_t begin_token, size_t end_token);

}  // namespace nerglob::core

#endif  // NERGLOB_CORE_LOCAL_NER_H_
