#ifndef NERGLOB_CORE_LOCAL_NER_H_
#define NERGLOB_CORE_LOCAL_NER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/stream_state.h"
#include "lm/micro_bert.h"
#include "stream/message.h"
#include "text/bio.h"

namespace nerglob::core {

/// Result of local NER for one message.
struct LocalNerOutput {
  int64_t message_id = 0;
  /// Position of the message in the ingested batch.
  size_t batch_index = 0;
  /// Local BIO decode: the spans a conventional NER system would emit.
  std::vector<text::EntitySpan> local_spans;
  /// Surface forms (matching form, space-joined) newly added to the trie.
  std::vector<std::string> new_surfaces;
};

/// Local NER (Sec. IV) is the fine-tuned encoder run over each message in
/// isolation (lm::MicroBert::EncodeMany) followed by this serial ingest:
/// it stores each sentence record (the message and its BIO labels) in the
/// state's TweetBase and seeds the CandidateTrie and the seed support with
/// the detected surface forms, the seed entity candidates
/// (StreamState::SeedLocalSpans). The encoder is a weak
/// labeller here: its spans seed the CTrie and its embeddings feed the
/// Phrase Embedder, but its labels are not the system output.
///
/// Merges the pre-computed encode results into `state` in input order (so
/// new-surface discovery order and all downstream state are independent
/// of how — and where — the encoding ran). `(*encoded)[i]` must be the
/// encoder output for `batch[i].tokens` (default-constructed for empty
/// messages); its BIO labels are consumed (moved into the stored
/// SentenceRecords) and its embeddings are left for the batch's mention
/// extraction. Message ids must be unique within the live window: a
/// message whose id is already live, or repeats an earlier message of the
/// batch, is dropped — it gets no output, no record and no seed support —
/// and counted in `pipeline.duplicate_messages_dropped_total`.
std::vector<LocalNerOutput> IngestEncodedBatch(
    const std::vector<stream::Message>& batch,
    std::vector<lm::EncodeResult>* encoded, StreamState* state);

/// The matching-form token sequence of a span ("andy beshear" tokens).
std::vector<std::string> SpanMatchTokens(const stream::Message& message,
                                         size_t begin_token, size_t end_token);

/// Space-joined surface string of a span.
std::string SpanSurfaceString(const stream::Message& message,
                              size_t begin_token, size_t end_token);

}  // namespace nerglob::core

#endif  // NERGLOB_CORE_LOCAL_NER_H_
