#ifndef NERGLOB_STREAM_STREAMING_SESSION_H_
#define NERGLOB_STREAM_STREAMING_SESSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/model_bundle.h"
#include "core/ner_globalizer.h"
#include "stream/message.h"

namespace nerglob::io {
class TensorReader;
class TensorWriter;
}  // namespace nerglob::io

namespace nerglob::stream {

/// Knobs for a bounded-memory streaming run.
struct StreamingSessionConfig {
  /// Pipeline configuration, including the eviction window
  /// (pipeline.window_messages; 0 keeps the session unbounded).
  core::NerGlobalizerConfig pipeline;
};

/// Aggregate outcome of StreamingSession::Run.
struct StreamingRunStats {
  size_t batches = 0;
  size_t messages = 0;
  size_t finalized_messages = 0;
  size_t evicted_messages = 0;
  core::PipelineMemoryUsage peak_memory;  ///< max total_bytes over batches
};

/// StreamingSession: the bounded-memory runtime driving a StreamSource
/// through the NER Globalizer pipeline (the Sec. III execution cycle as a
/// long-running service). Each Step pulls one batch, processes it, and
/// collects the predictions of messages that left the sliding window —
/// the *finalized* checkpoint stream. Flush (called automatically by Run)
/// finalizes whatever is still live when the source ends, so after a full
/// run `finalized()` holds exactly one entry per stored stream message, in
/// stream order (a message without tokens, or whose id was live when it
/// arrived, is never stored).
///
/// State machine:
///
///   [idle] --Step: batch--> [processing] --evictions--> finalized buffer
///      ^                        |
///      |                        v
///      +---- Step: empty batch / Flush --> [flushed] (terminal until the
///                                          next Step resumes the stream)
///
/// Thread-safety: not thread-safe; drive a session from one thread at a
/// time. The pipeline parallelizes internally (see NerGlobalizer), and
/// serve::SessionManager multiplexes many sessions by pinning each one to
/// a single shard worker, preserving this contract.
class StreamingSession {
 public:
  /// Borrows a trained bundle (which must outlive the session). Any
  /// number of sessions may share one const bundle concurrently — each
  /// owns its whole mutable state.
  StreamingSession(const core::ModelBundle* bundle,
                   StreamingSessionConfig config);

  /// Pulls and processes one batch. Returns false (doing no work) when the
  /// source is exhausted — the loop contract is simply
  /// `while (session.Step(&source)) {}`. Cost: one ProcessBatch, bounded
  /// by batch size + window size when eviction is on.
  bool Step(StreamSource* source);

  /// Push-based twin of Step for drivers that deliver batches themselves
  /// (serve::SessionManager shard workers, network frontends): processes
  /// one already-assembled batch. An empty batch is a no-op returning
  /// false — the same end-of-stream signal Step derives from an exhausted
  /// source, so `Step(&s)` is exactly `ProcessBatch(s.NextBatch())`.
  bool ProcessBatch(const std::vector<Message>& batch);

  /// ProcessBatch with the encoder stage's results supplied by the caller
  /// (a driver that runs the encoder apart from the state-mutating stages,
  /// as bench/e2e's split replay does). `encoded[i]` must be bitwise what
  /// the bundle's model would produce for `batch[i].tokens` —
  /// lm::MicroBert::EncodeMany guarantees this for any batch
  /// composition — so the session's state and finalized output stay
  /// byte-identical to ProcessBatch (enforced by pipeline_test).
  bool ProcessBatchPreEncoded(const std::vector<Message>& batch,
                              std::vector<lm::EncodeResult> encoded);

  /// Drives the source to exhaustion, then Flush()es the remaining live
  /// window. Returns the aggregate stats.
  StreamingRunStats Run(StreamSource* source);

  /// Finalizes every message still live in the window (without evicting
  /// it), appending to the finalized buffer in stream order. Idempotent
  /// until the next Step. Use at end-of-stream or before a checkpoint.
  void Flush();

  /// All finalized predictions so far, in stream order: messages flushed
  /// by eviction as they left the window, plus (after Flush) the live
  /// remainder.
  const std::vector<core::FinalizedMessage>& finalized() const {
    return finalized_;
  }

  /// Moves the finalized buffer out (downstream consumers that persist
  /// checkpoints incrementally call this after every Step).
  std::vector<core::FinalizedMessage> TakeFinalized();

  /// Writes the complete session state — counters, the finalized buffer,
  /// and the pipeline's checkpoint — to `path`. A session restored from
  /// the file continues the stream bit-identically: its finalized output
  /// and Predictions() at every PipelineStage match an uninterrupted run.
  /// Crash-safe: the file is written via temp + fsync + atomic rename
  /// (io::WriteFileAtomically) with transient IO failures retried, so a
  /// crash mid-checkpoint leaves the previous bytes at `path`, never a
  /// torn file (docs/RELIABILITY.md).
  Status Checkpoint(const std::string& path) const;

  /// Restores a checkpoint written by Checkpoint. Two-phase at every
  /// layer: a corrupt, truncated, or mismatched file returns non-OK and
  /// leaves this session untouched. Transient read failures are retried
  /// (io::RetryPolicy). The session must have been built with the same
  /// models/bundle and config as the one that checkpointed.
  Status Restore(const std::string& path);

  /// Streams the checkpoint records into an already-open writer / out of
  /// an already-open reader — the building blocks CheckpointAll-style
  /// fleet checkpoints compose with their own framing and atomicity.
  /// RestoreFrom has the same two-phase commit contract as Restore.
  Status CheckpointTo(io::TensorWriter* writer) const;
  Status RestoreFrom(io::TensorReader* reader);

  size_t batches_processed() const { return batches_; }
  size_t messages_processed() const { return messages_; }

  /// Current stream-state footprint (see NerGlobalizer::MemoryUsage).
  core::PipelineMemoryUsage MemoryUsage() const { return pipeline_.MemoryUsage(); }

  const core::NerGlobalizer& pipeline() const { return pipeline_; }
  core::NerGlobalizer& pipeline() { return pipeline_; }

 private:
  /// Shared post-processing of both ProcessBatch flavors: drains the
  /// pipeline's finalized buffer and records stream metrics.
  void CollectBatchResults(size_t batch_messages);

  core::NerGlobalizer pipeline_;
  std::vector<core::FinalizedMessage> finalized_;
  size_t batches_ = 0;
  size_t messages_ = 0;
  bool flushed_ = false;
};

}  // namespace nerglob::stream

#endif  // NERGLOB_STREAM_STREAMING_SESSION_H_
