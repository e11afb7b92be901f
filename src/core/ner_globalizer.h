#ifndef NERGLOB_CORE_NER_GLOBALIZER_H_
#define NERGLOB_CORE_NER_GLOBALIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/entity_classifier.h"
#include "core/model_bundle.h"
#include "core/ner_globalizer_config.h"
#include "core/phrase_embedder.h"
#include "core/stream_state.h"
#include "stream/message.h"

namespace nerglob::core {

/// Which prefix of the pipeline produces the output — the Fig. 3 ablation
/// stages, bottom curve to top curve.
enum class PipelineStage {
  /// Conventional NER: the Local NER BIO decode is the output.
  kLocalOnly = 0,
  /// + CTrie mention extraction; surface forms typed by their most
  /// frequent local type (Fig. 3's second curve).
  kMentionExtraction = 1,
  /// + local mention embeddings, each classified individually (no pooling;
  /// Fig. 3's third curve).
  kLocalEmbeddings = 2,
  /// Full Global NER: clustering + pooled global embeddings + classifier.
  kFullGlobal = 3,
};

const char* PipelineStageName(PipelineStage stage);

/// The u32 checkpoint layout version that opens every checkpoint record
/// whose layout it governs: NerGlobalizer's kTagCheckpoint header and
/// StreamingSession's kTagSession record. Checking it first refuses a
/// file from another layout (FailedPrecondition) before any of its fields
/// is misparsed.
void PutCheckpointLayout(io::TensorWriter* writer);
Status CheckCheckpointLayout(io::TensorReader* reader);

/// The pipeline config a bundle was tuned with: defaults everywhere except
/// the clustering cut, which comes from the bundle's training recipe.
NerGlobalizerConfig DefaultPipelineConfig(const ModelBundle& bundle);

/// The NER Globalizer pipeline (Fig. 2): Local NER -> mention extraction ->
/// phrase embedding -> candidate clustering -> entity classification.
///
/// A thin engine in the model/session split: the trained models are
/// borrowed const as one ModelBundle (shared across any number of
/// concurrent pipelines) and all mutable stream state lives in one owned
/// StreamState, checkpointable with Checkpoint()/Restore().
///
/// Supports continuous execution over batches. With the default unbounded
/// configuration every ProcessBatch extends the TweetBase/CTrie/
/// CandidateBase incrementally and Predictions() reflects everything
/// processed since startup. With window_messages > 0 the pipeline holds
/// only the most recent window: older messages are evicted after each
/// batch (their final predictions buffered for TakeFinalized()) and
/// Predictions() covers the live window only.
///
/// The CandidateBase stores only mention pools, no partitions: clustering
/// and classification run when an output is read — by eviction's flush for
/// the surfaces of departing messages, by Predictions(kFullGlobal) for
/// every live surface, and by Candidates(). A batch therefore clusters
/// nothing unless it evicts.
///
/// Thread-safety: the pipeline parallelizes internally (encoder forwards,
/// trie scans, per-surface clustering fan out over the process thread
/// pool) but its public interface is NOT thread-safe — call ProcessBatch /
/// Predictions / TakeFinalized from one thread at a time. Distinct
/// pipelines over one const ModelBundle may run fully concurrently.
/// Outputs are bit-identical for any NERGLOB_THREADS setting.
class NerGlobalizer {
 public:
  /// Borrows a trained bundle, which must hold models (has_models()) and
  /// outlive the pipeline. Checkpoints are stamped with the bundle
  /// fingerprint, so one cannot be restored onto a different architecture.
  NerGlobalizer(const ModelBundle* bundle, NerGlobalizerConfig config);

  /// Processes one batch of the stream (Sec. III execution cycle) by
  /// chaining the stage graph (core/stages.h): LocalEncode → IngestLocal →
  /// ExtractMentions → Evict. Cost is O(batch work + the surfaces holding
  /// evicted mentions, which are clustered to flush them); with a window it
  /// is independent of how many messages the stream has seen in total.
  /// Message ids must be unique within the live window: a message whose id
  /// is live, or repeats one earlier in the batch, is dropped (no record,
  /// no output) and counted in `pipeline.duplicate_messages_dropped_total`.
  void ProcessBatch(const std::vector<stream::Message>& batch);

  /// ProcessBatch with the LocalEncode stage's work supplied by the caller:
  /// `encoded[i]` must be bitwise what the bundle's model returns for
  /// `batch[i].tokens` (default-constructed for empty messages) — the
  /// contract lm::MicroBert::EncodeMany provides for any batch composition.
  /// All downstream state evolves bit-identically to ProcessBatch
  /// (enforced by test).
  void ProcessBatchPreEncoded(const std::vector<stream::Message>& batch,
                              std::vector<lm::EncodeResult> encoded);

  /// Convenience: processes `messages` in batches of `batch_size`.
  /// `batch_size == 0` (the default) uses config().process_batch_size.
  void ProcessAll(const std::vector<stream::Message>& messages,
                  size_t batch_size = 0);

  /// Final spans per live message (stream order), produced by the given
  /// pipeline prefix. kFullGlobal is the system output. With eviction
  /// enabled this covers the current window; evicted messages' outputs are
  /// returned once via TakeFinalized(). kFullGlobal clusters and classifies
  /// every live surface (no partition is stored) and adds that time to
  /// global_seconds(): O(sum over surfaces of min(pool, 64)^3 + pool). The
  /// other stages are O(live mentions).
  std::vector<std::vector<text::EntitySpan>> Predictions(
      PipelineStage stage = PipelineStage::kFullGlobal);

  /// The candidate partition of one surface form (Sec. V-D): its mention
  /// pool clustered, each cluster classified. Computed on every call, so it
  /// always reflects the current pool; empty for a surface without
  /// mentions. O(min(pool, 64)^3 + pool).
  std::vector<stream::CandidateEntry> Candidates(
      const std::string& surface) const;

  /// Drains the buffer of messages finalized by eviction since the last
  /// call, in stream order. Empty when window_messages == 0.
  std::vector<FinalizedMessage> TakeFinalized();

  /// Appends the session state (one kTagCheckpoint header record: layout
  /// version, bundle fingerprint, config echo, timing counters — then the
  /// StreamState records, which omit encoder outputs and phrase
  /// embeddings) to an open artifact. Restoring the result reproduces
  /// Predictions() bit-identically at every PipelineStage.
  Status Checkpoint(io::TensorWriter* writer) const;

  /// Restores a checkpoint written by Checkpoint: re-encodes the live
  /// window with this pipeline's model, in chunks of
  /// config().process_batch_size, and recomputes every mention's phrase
  /// embedding with its embedder. Fails (leaving the current state
  /// untouched) with FailedPrecondition if the checkpoint's layout
  /// version, bundle fingerprint or pipeline config disagree with this
  /// pipeline's, and with a typed error if any record is corrupt or
  /// truncated.
  Status Restore(io::TensorReader* reader);

  /// Message ids in stream order (aligned with Predictions()); the live
  /// window under eviction.
  const std::vector<int64_t>& message_ids() const {
    return state_.tweet_base.ids();
  }

  /// Cumulative wall-clock seconds spent in the Local NER step vs the
  /// Global NER steps (Table IV's execution-time columns).
  double local_seconds() const { return local_seconds_; }
  double global_seconds() const { return global_seconds_; }

  /// Approximate heap footprint of the stream state (TweetBase +
  /// CandidateBase + CTrie). O(state size); call per batch, not per
  /// message.
  PipelineMemoryUsage MemoryUsage() const { return state_.MemoryUsage(); }

  /// Messages evicted since construction (0 when unbounded).
  size_t evicted_messages() const { return state_.evicted_messages; }

  const stream::TweetBase& tweet_base() const { return state_.tweet_base; }
  const stream::CandidateBase& candidate_base() const {
    return state_.candidate_base;
  }
  const trie::CandidateTrie& trie() const { return state_.trie; }
  const NerGlobalizerConfig& config() const { return config_; }

 private:
  /// The stage-graph driver behind both ProcessBatch entry points. When
  /// `pre_encoded`, `encoded` is consumed as the LocalEncode product.
  void RunStages(const std::vector<stream::Message>& batch,
                 std::vector<lm::EncodeResult> encoded, bool pre_encoded);

  const ModelBundle* bundle_;
  NerGlobalizerConfig config_;

  StreamState state_;

  double local_seconds_ = 0.0;
  double global_seconds_ = 0.0;
};

}  // namespace nerglob::core

#endif  // NERGLOB_CORE_NER_GLOBALIZER_H_
