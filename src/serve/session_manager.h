#ifndef NERGLOB_SERVE_SESSION_MANAGER_H_
#define NERGLOB_SERVE_SESSION_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/model_bundle.h"
#include "stream/streaming_session.h"

namespace nerglob::serve {

/// Default per-shard queue capacity (in batches). First call reads the
/// NERGLOB_SERVE_QUEUE_CAP environment variable; when unset (or invalid)
/// the value is 64. Always >= 1.
size_t DefaultQueueCapacity();

/// Knobs for a SessionManager. All sessions opened by one manager share
/// one pipeline configuration (and therefore one window size), so a
/// checkpointed fleet restores onto a manager built the same way.
struct SessionManagerConfig {
  /// Worker shards (one thread + one FIFO queue each). 0 => Parallelism()
  /// (the NERGLOB_THREADS / hardware default).
  size_t num_shards = 0;
  /// Hard cap on queued batches per shard. 0 => DefaultQueueCapacity()
  /// (the NERGLOB_SERVE_QUEUE_CAP knob).
  size_t queue_capacity = 0;
  /// Overload hysteresis. A shard whose depth reaches `high_watermark`
  /// rejects new batches (Status::Unavailable) until the worker drains it
  /// back to `low_watermark`, so a bursting client sees one contiguous
  /// rejection episode instead of flapping at the cap. When
  /// high_watermark == 0 both default: high = queue_capacity,
  /// low = queue_capacity / 2. (Set high explicitly to use a custom low;
  /// low == 0 then means "must fully drain".)
  size_t high_watermark = 0;
  size_t low_watermark = 0;
  /// Committed checkpoint generations kept per CheckpointAll directory.
  /// After a successful commit, older `gen-*` directories beyond the
  /// newest `checkpoint_retain` are pruned (best-effort). 0 keeps all.
  size_t checkpoint_retain = 3;
  /// Pipeline configuration applied to every session; typical callers
  /// start from core::DefaultPipelineConfig(bundle) and set a window.
  core::NerGlobalizerConfig pipeline;
};

/// Aggregate counters since construction (monotonic except open_sessions).
struct SessionManagerStats {
  uint64_t submitted_batches = 0;  ///< accepted by Submit
  uint64_t rejected_batches = 0;   ///< refused by admission control
  uint64_t processed_batches = 0;  ///< completed by a shard worker
  uint64_t processed_messages = 0;
  size_t open_sessions = 0;
  size_t quarantined_sessions = 0;  ///< poisoned sessions still held open
};

/// SessionManager: the multi-session serving runtime. Shards N independent
/// StreamingSessions over one const ModelBundle — the many-tenants-one-model
/// shape the model/session split was built for (docs/ARCHITECTURE.md §8).
///
///   client ──Submit(id, batch)──▶ [shard = hash(id) % S]
///                                    │ bounded FIFO queue (backpressure)
///                                    ▼
///                               shard worker ──ProcessBatch──▶ session
///
/// Determinism: a session is pinned to one shard for life, each shard has
/// exactly one worker, and the per-shard queue is FIFO — so every session's
/// batches are processed in submission order by one thread at a time, and
/// the pipeline itself is bit-identical for any thread count. Result: each
/// session's finalized output is byte-identical to a single-threaded
/// replay of the same batch sequence (pinned by serve_test and the CI
/// serve-stress TSan soak), regardless of shard count or co-tenants.
///
/// Backpressure: Submit never blocks. A shard at its high watermark (or
/// hard capacity) rejects with Status::Unavailable and stays rejecting
/// until drained to the low watermark; callers retry later or shed load.
/// Queues are bounded in batches, so manager memory is bounded by
/// num_shards * queue_capacity * batch size on top of the session windows.
///
/// Graceful degradation: a worker that hits a processing failure for one
/// session (an escaped exception, or an injected serve.process fault)
/// *quarantines* that session instead of taking down the fleet. A
/// quarantined session stays open but inert: Submit/Flush/TakeFinalized
/// return Status::DataLoss, queued batches for it are dropped, and
/// CheckpointAll skips it; Close still works. The
/// `serve.quarantined_sessions` gauge and stats().quarantined_sessions
/// expose the count. Co-tenant sessions — including others on the same
/// shard — are unaffected (docs/RELIABILITY.md).
///
/// Thread-safety: Submit/Drain/TakeFinalized/stats may be called from any
/// thread. Control-plane calls that reshape the fleet (Open/Close/
/// CheckpointAll/RestoreAll/Shutdown) and per-session collection calls
/// (Flush/TakeFinalized) serialize internally, but submitting to a session
/// concurrently with Flush/Close/Checkpoint of that same session has
/// unspecified ordering — quiesce a stream before collecting it.
class SessionManager {
 public:
  /// `bundle` must be trained and outlive the manager; it is shared
  /// read-only by every session.
  SessionManager(const core::ModelBundle* bundle, SessionManagerConfig config);

  /// Graceful: Shutdown() — drains all queues, then joins the workers.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Creates a session for `stream_id` (pinned to hash(stream_id) % S).
  /// AlreadyExists if open; FailedPrecondition after Shutdown.
  Status Open(const std::string& stream_id);

  /// Waits for the session's queued batches to complete, then removes it
  /// (dropping any uncollected finalized output). NotFound if unknown.
  Status Close(const std::string& stream_id);

  /// Enqueues one batch for `stream_id`'s shard. Never blocks. Message
  /// ids must be unique within the session's live window: a message whose
  /// id is live, or repeats one earlier in its batch, is dropped unseen
  /// (core::NerGlobalizer::ProcessBatch).
  ///   NotFound            — no such session
  ///   Unavailable         — shard overloaded (admission control; retry)
  ///   DataLoss            — session is quarantined (see class comment)
  ///   FailedPrecondition  — manager shut down
  ///   InvalidArgument     — empty batch, or a token whose matching form
  ///                         is empty or holds whitespace (the message and
  ///                         token index are named; checked before any
  ///                         lock is taken)
  Status Submit(const std::string& stream_id, std::vector<stream::Message> batch);

  /// Blocks until every queued batch (across all shards) has completed.
  /// The manager stays fully usable afterwards — Drain is a barrier, not a
  /// shutdown. Pair with Pause()d submission for a consistent fleet view.
  void Drain();

  /// Maintenance mode: workers finish their in-flight batch and then stop
  /// dequeuing until Resume(). Queued work is retained; admission control
  /// keeps operating (a paused manager fills up and rejects — the
  /// deterministic way to exercise backpressure).
  void Pause();
  void Resume();

  /// Stops accepting (Open/Submit/RestoreAll fail FailedPrecondition),
  /// drains every queue, and joins the workers. Sessions stay readable:
  /// Flush/TakeFinalized/CheckpointAll still work. Idempotent.
  void Shutdown();

  /// Waits for the session to go idle, then finalizes its live window
  /// (StreamingSession::Flush) so TakeFinalized returns a complete stream.
  /// DataLoss if the session is quarantined.
  Status Flush(const std::string& stream_id);

  /// Drain() + Flush for every open session.
  void FlushAll();

  /// Waits for the session to go idle, then moves its finalized
  /// predictions out (stream order, each message exactly once). DataLoss
  /// if the session is quarantined.
  Result<std::vector<core::FinalizedMessage>> TakeFinalized(
      const std::string& stream_id);

  /// Drains, then checkpoints the whole fleet into a fresh generation
  /// directory `dir/gen-%08u/`: one StreamingSession checkpoint per
  /// session plus a `manifest.ngm` (kTagServeManifest: session ids ->
  /// files) committed *last*. Crash-safe end to end (docs/RELIABILITY.md):
  /// the generation is staged as `gen-N.tmp`, every file inside is written
  /// via temp + fsync + atomic rename, and the staging directory is
  /// renamed to its final name only after the manifest lands — so a crash
  /// at any point leaves prior generations untouched and the torn one
  /// ignorable. Deterministic: sessions are written in sorted-id order.
  /// Quarantined sessions are skipped (their state is untrusted).
  /// Uncollected finalized output is part of each session's checkpoint, so
  /// nothing is lost across a stop/resume. After a successful commit,
  /// generations beyond config.checkpoint_retain are pruned.
  Status CheckpointAll(const std::string& dir);

  /// Restores the *newest committed generation* under `dir`, opening one
  /// session per manifest entry; NotFound if `dir` holds no generation.
  /// Strict: a corrupt newest generation fails the call — use
  /// RecoverLatest to fall back. Two-phase: any corrupt, truncated, or
  /// config/fingerprint-mismatched file fails the whole call and leaves
  /// the manager without any of the manifest's sessions. Fails if a manifest id is already open. The restored fleet
  /// continues every stream bit-identically.
  Status RestoreAll(const std::string& dir);

  /// Crash-recovery entry point: walks the generations under `dir` from
  /// newest to oldest and restores the first fully-valid one, logging and
  /// skipping generations with missing/corrupt files (the debris a crash
  /// mid-CheckpointAll can leave). On success `*generation` (if non-null)
  /// receives the restored generation number. Returns NotFound if `dir`
  /// holds no checkpoint at all, DataLoss if generations exist but none
  /// validates, AlreadyExists immediately (no fallback) if a manifest id
  /// collides with an open session.
  Status RecoverLatest(const std::string& dir, uint64_t* generation = nullptr);

  SessionManagerStats stats() const;
  size_t num_shards() const { return shards_.size(); }
  size_t queue_capacity() const { return queue_capacity_; }
  /// Batches queued on shard `i` right now.
  size_t QueueDepth(size_t shard) const;
  /// Open session ids, sorted.
  std::vector<std::string> SessionIds() const;
  /// The shard `stream_id` is (or would be) pinned to.
  size_t ShardOf(const std::string& stream_id) const;

 private:
  struct SessionEntry {
    SessionEntry(std::string id_in, size_t shard_in,
                 const core::ModelBundle* bundle,
                 const stream::StreamingSessionConfig& config)
        : id(std::move(id_in)), shard(shard_in), session(bundle, config) {}
    std::string id;
    size_t shard;
    stream::StreamingSession session;
    /// Batches queued or in flight for this session; guarded by drain_mu_.
    size_t pending = 0;
    /// Set (never cleared) by a worker that failed processing a batch for
    /// this session; read by the data plane to fail fast with DataLoss.
    std::atomic<bool> quarantined{false};
  };

  struct WorkItem {
    SessionEntry* entry = nullptr;
    std::vector<stream::Message> batch;
    MonotonicClock::time_point enqueued;
  };

  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::deque<WorkItem> queue;   // guarded by mu
    bool overloaded = false;      // watermark hysteresis state, guarded by mu
    metrics::Gauge* depth_gauge = nullptr;  // resolved once at construction
    std::thread worker;
  };

  void WorkerLoop(Shard* shard);
  /// Blocks until entry->pending == 0 (establishes the happens-before edge
  /// that makes the session safe to touch from the calling thread).
  void AwaitSessionIdle(SessionEntry* entry);
  stream::StreamingSessionConfig SessionConfig() const;
  /// Marks the entry quarantined (idempotent) and updates the gauge.
  void QuarantineSession(SessionEntry* entry, const char* why);
  /// Restores the manifest-described fleet in `dir` into sessions_.
  /// Caller holds sessions_mu_. Strict and two-phase.
  Status RestoreManifestLocked(const std::string& dir);
  /// Removes committed generations beyond config_.checkpoint_retain.
  void PruneGenerations(const std::string& dir) const;

  const core::ModelBundle* bundle_;
  SessionManagerConfig config_;
  size_t queue_capacity_ = 0;
  size_t high_watermark_ = 0;
  size_t low_watermark_ = 0;

  /// Lock order (outer to inner): sessions_mu_ -> Shard::mu -> drain_mu_.
  /// Workers take only Shard::mu and drain_mu_, never sessions_mu_, so
  /// control-plane calls can wait for them without deadlock.
  mutable std::mutex sessions_mu_;
  std::map<std::string, std::unique_ptr<SessionEntry>> sessions_;
  bool accepting_ = true;       // guarded by sessions_mu_
  bool workers_joined_ = false; // guarded by sessions_mu_ (Shutdown idempotence)

  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  size_t pending_ = 0;  // queued + in-flight batches, guarded by drain_mu_

  std::atomic<bool> stop_{false};
  std::atomic<bool> paused_{false};

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> processed_batches_{0};
  std::atomic<uint64_t> processed_messages_{0};
  std::atomic<uint64_t> quarantined_{0};

  metrics::Counter* submitted_counter_;
  metrics::Counter* rejected_counter_;
  metrics::Counter* processed_counter_;
  metrics::Counter* messages_counter_;
  metrics::Counter* checkpoints_counter_;
  metrics::Counter* checkpoint_failures_counter_;
  metrics::Gauge* sessions_gauge_;
  metrics::Gauge* quarantined_gauge_;
  metrics::Histogram* latency_histogram_;

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace nerglob::serve

#endif  // NERGLOB_SERVE_SESSION_MANAGER_H_
