#include "serve/session_manager.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <utility>

#include "common/env.h"
#include "common/fault_injector.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "io/checkpoint_io.h"
#include "io/tensor_io.h"

namespace nerglob::serve {
namespace {

// 1-2-5 steps from 1us to 50s: finer than the decade-wide default so the
// enqueue-to-complete percentiles bench_serve derives are meaningful.
std::vector<double> LatencyBounds() {
  std::vector<double> bounds;
  for (double decade = 1e-6; decade < 20.0; decade *= 10.0) {
    for (const double step : {1.0, 2.0, 5.0}) bounds.push_back(decade * step);
  }
  return bounds;
}

}  // namespace

size_t DefaultQueueCapacity() {
  static const size_t cap = static_cast<size_t>(
      env::EnvInt("NERGLOB_SERVE_QUEUE_CAP", 64, 1, 1 << 20));
  return cap;
}

SessionManager::SessionManager(const core::ModelBundle* bundle,
                               SessionManagerConfig config)
    : bundle_(bundle), config_(std::move(config)) {
  const size_t num_shards =
      config_.num_shards > 0 ? config_.num_shards : Parallelism();
  queue_capacity_ =
      config_.queue_capacity > 0 ? config_.queue_capacity : DefaultQueueCapacity();

  auto& registry = metrics::MetricsRegistry::Global();
  submitted_counter_ = registry.GetCounter("serve.submitted_total");
  rejected_counter_ = registry.GetCounter("serve.rejected_total");
  processed_counter_ = registry.GetCounter("serve.processed_batches_total");
  messages_counter_ = registry.GetCounter("serve.processed_messages_total");
  checkpoints_counter_ = registry.GetCounter("serve.checkpoints_total");
  checkpoint_failures_counter_ =
      registry.GetCounter("serve.checkpoint_failures_total");
  sessions_gauge_ = registry.GetGauge("serve.sessions");
  quarantined_gauge_ = registry.GetGauge("serve.quarantined_sessions");
  latency_histogram_ =
      registry.GetHistogram("serve.enqueue_to_complete_seconds",
                            LatencyBounds());

  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->depth_gauge =
        registry.GetGauge(StrFormat("serve.shard%zu.queue_depth", i));
    shards_.push_back(std::move(shard));
  }
  // Start the workers only once every shard exists: a worker touches other
  // members (drain_mu_, counters) that must be fully constructed first.
  for (auto& shard : shards_) {
    shard->worker = std::thread(&SessionManager::WorkerLoop, this, shard.get());
  }
}

SessionManager::~SessionManager() { Shutdown(); }

size_t SessionManager::ShardOf(const std::string& stream_id) const {
  // FNV-1a 64: stable across platforms/runs, so a checkpointed fleet
  // restores every session onto the same shard.
  uint64_t h = 1469598103934665603ull;
  for (const char c : stream_id) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ull;
  }
  return static_cast<size_t>(h % shards_.size());
}

stream::StreamingSessionConfig SessionManager::SessionConfig() const {
  stream::StreamingSessionConfig config;
  config.pipeline = config_.pipeline;
  return config;
}

Status SessionManager::Open(const std::string& stream_id) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  if (!accepting_) {
    return Status::FailedPrecondition("SessionManager is shut down");
  }
  if (sessions_.count(stream_id) > 0) {
    return Status::AlreadyExists(
        StrFormat("session '%s' is already open", stream_id.c_str()));
  }
  sessions_.emplace(stream_id,
                    std::make_unique<SessionEntry>(stream_id, ShardOf(stream_id),
                                                   bundle_, SessionConfig()));
  sessions_gauge_->Set(static_cast<double>(sessions_.size()));
  return Status::OK();
}

Status SessionManager::Close(const std::string& stream_id) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(stream_id);
  if (it == sessions_.end()) {
    return Status::NotFound(
        StrFormat("no session '%s'", stream_id.c_str()));
  }
  // Queued batches still reference the entry; let the workers finish them
  // before freeing it. Submit is blocked on sessions_mu_, so no new work
  // can arrive in between.
  AwaitSessionIdle(it->second.get());
  if (it->second->quarantined.load(std::memory_order_acquire)) {
    const uint64_t count =
        quarantined_.fetch_sub(1, std::memory_order_relaxed) - 1;
    quarantined_gauge_->Set(static_cast<double>(count));
  }
  sessions_.erase(it);
  sessions_gauge_->Set(static_cast<double>(sessions_.size()));
  return Status::OK();
}

Status SessionManager::Submit(const std::string& stream_id,
                              std::vector<stream::Message> batch) {
  // A span's surface joins its tokens' matching forms with ' ', and
  // eviction splits the surface on ' ' to remove its trie form, so a form
  // that is empty or holds whitespace would stay in the trie forever. The
  // tokenizer never emits one; caller-built tokens are checked here. A
  // token's spelling is read from the message text through its offsets,
  // which are 32-bit, so they must lie inside a text shorter than 4 GiB.
  for (const stream::Message& message : batch) {
    if (message.text.size() > UINT32_MAX) {
      return Status::InvalidArgument(StrFormat(
          "Submit: message %lld text of %zu bytes exceeds the 4 GiB limit",
          static_cast<long long>(message.id), message.text.size()));
    }
    for (size_t t = 0; t < message.tokens.size(); ++t) {
      const text::Token& token = message.tokens[t];
      if (token.begin > token.end || token.end > message.text.size()) {
        return Status::InvalidArgument(StrFormat(
            "Submit: message %lld token %zu offsets [%u, %u) lie outside "
            "its %zu-byte text",
            static_cast<long long>(message.id), t, token.begin, token.end,
            message.text.size()));
      }
      const std::string& match = token.match;
      if (match.empty() ||
          std::any_of(match.begin(), match.end(), [](unsigned char c) {
            return std::isspace(c) != 0;
          })) {
        return Status::InvalidArgument(StrFormat(
            "Submit: message %lld token %zu has an empty or whitespace-"
            "bearing matching form",
            static_cast<long long>(message.id), t));
      }
    }
  }
  std::lock_guard<std::mutex> lock(sessions_mu_);
  if (!accepting_) {
    return Status::FailedPrecondition("SessionManager is shut down");
  }
  if (batch.empty()) {
    return Status::InvalidArgument("Submit: empty batch");
  }
  auto it = sessions_.find(stream_id);
  if (it == sessions_.end()) {
    return Status::NotFound(
        StrFormat("no session '%s'", stream_id.c_str()));
  }
  SessionEntry* entry = it->second.get();
  if (entry->quarantined.load(std::memory_order_acquire)) {
    return Status::DataLoss(StrFormat(
        "session '%s' is quarantined after a processing failure; its state "
        "is untrusted — Close it and restore from the last checkpoint",
        stream_id.c_str()));
  }
  if (fault::InjectFault(fault::kSiteServeEnqueue)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    rejected_counter_->Increment();
    return Status::Unavailable(StrFormat(
        "injected fault at serve.enqueue (session '%s')", stream_id.c_str()));
  }
  Shard& shard = *shards_[entry->shard];
  {
    std::lock_guard<std::mutex> shard_lock(shard.mu);
    // Admission control with hysteresis: once a shard reaches its capacity
    // it keeps rejecting until the worker drains it down to half of it, so
    // a burst sees one contiguous rejection episode.
    if (shard.overloaded || shard.queue.size() >= queue_capacity_) {
      shard.overloaded = true;
      rejected_.fetch_add(1, std::memory_order_relaxed);
      rejected_counter_->Increment();
      return Status::Unavailable(
          StrFormat("shard %zu overloaded (%zu queued, capacity %zu); retry "
                    "after the backlog drains",
                    entry->shard, shard.queue.size(), queue_capacity_));
    }
    {
      // Count the batch as pending before it becomes visible to the
      // worker, or the worker's decrement could race ahead of us.
      std::lock_guard<std::mutex> drain_lock(drain_mu_);
      ++pending_;
      ++entry->pending;
    }
    WorkItem item;
    item.entry = entry;
    item.batch = std::move(batch);
    item.enqueued = MonotonicClock::now();
    shard.queue.push_back(std::move(item));
    shard.depth_gauge->Set(static_cast<double>(shard.queue.size()));
  }
  shard.cv.notify_one();
  submitted_.fetch_add(1, std::memory_order_relaxed);
  submitted_counter_->Increment();
  return Status::OK();
}

void SessionManager::WorkerLoop(Shard* shard) {
  static const trace::TraceStage kServeBatchStage("serve_batch");
  while (true) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(shard->mu);
      shard->cv.wait(lock, [&] {
        return stop_.load(std::memory_order_acquire) ||
               (!paused_.load(std::memory_order_acquire) &&
                !shard->queue.empty());
      });
      if (shard->queue.empty()) {
        if (stop_.load(std::memory_order_acquire)) return;
        continue;  // spurious wake, or paused with pending notify
      }
      item = std::move(shard->queue.front());
      shard->queue.pop_front();
      if (shard->queue.size() <= queue_capacity_ / 2) shard->overloaded = false;
      shard->depth_gauge->Set(static_cast<double>(shard->queue.size()));
    }
    // The session is safe to touch without a lock: it is pinned to this
    // shard, this shard has exactly one worker, and control-plane callers
    // wait for entry->pending == 0 before touching it. A processing
    // failure quarantines this one session; the worker (and every
    // co-tenant session) keeps serving.
    bool processed = false;
    if (!item.entry->quarantined.load(std::memory_order_acquire)) {
      if (fault::InjectFault(fault::kSiteServeProcess)) {
        QuarantineSession(item.entry, "injected fault at serve.process");
      } else {
        trace::TraceSpan span(kServeBatchStage);
        try {
          item.entry->session.ProcessBatch(item.batch);
          processed = true;
        } catch (const std::exception& e) {
          QuarantineSession(item.entry, e.what());
        } catch (...) {
          QuarantineSession(item.entry, "unknown exception in ProcessBatch");
        }
      }
    }
    if (processed) {
      processed_batches_.fetch_add(1, std::memory_order_relaxed);
      processed_messages_.fetch_add(item.batch.size(),
                                    std::memory_order_relaxed);
      if (metrics::Enabled()) {
        processed_counter_->Increment();
        messages_counter_->Increment(item.batch.size());
        latency_histogram_->Observe(
            std::chrono::duration<double>(MonotonicClock::now() -
                                          item.enqueued)
                .count());
      }
    }
    {
      std::lock_guard<std::mutex> drain_lock(drain_mu_);
      --pending_;
      --item.entry->pending;
    }
    drain_cv_.notify_all();
  }
}

void SessionManager::QuarantineSession(SessionEntry* entry, const char* why) {
  if (entry->quarantined.exchange(true, std::memory_order_acq_rel)) return;
  const uint64_t count = quarantined_.fetch_add(1, std::memory_order_relaxed) + 1;
  quarantined_gauge_->Set(static_cast<double>(count));
  NERGLOB_LOG(kWarning) << "quarantining session '" << entry->id
                        << "' after processing failure: " << why;
}

void SessionManager::AwaitSessionIdle(SessionEntry* entry) {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [&] { return entry->pending == 0; });
}

void SessionManager::Drain() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [&] { return pending_ == 0; });
}

void SessionManager::Pause() {
  paused_.store(true, std::memory_order_release);
}

void SessionManager::Resume() {
  paused_.store(false, std::memory_order_release);
  for (auto& shard : shards_) {
    // Lock/unlock pairs the store with the worker's predicate check so the
    // notify cannot slip between its check and its wait.
    { std::lock_guard<std::mutex> lock(shard->mu); }
    shard->cv.notify_all();
  }
}

void SessionManager::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (workers_joined_) return;
    accepting_ = false;
  }
  Resume();  // a paused manager must still drain
  Drain();
  stop_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    { std::lock_guard<std::mutex> lock(shard->mu); }
    shard->cv.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  std::lock_guard<std::mutex> lock(sessions_mu_);
  workers_joined_ = true;
}

Status SessionManager::Flush(const std::string& stream_id) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(stream_id);
  if (it == sessions_.end()) {
    return Status::NotFound(
        StrFormat("no session '%s'", stream_id.c_str()));
  }
  AwaitSessionIdle(it->second.get());
  if (it->second->quarantined.load(std::memory_order_acquire)) {
    return Status::DataLoss(StrFormat(
        "session '%s' is quarantined; its state is untrusted",
        stream_id.c_str()));
  }
  it->second->session.Flush();
  return Status::OK();
}

void SessionManager::FlushAll() {
  // sessions_mu_ blocks new Submits while we wait, so the flush below sees
  // a quiesced fleet.
  std::lock_guard<std::mutex> lock(sessions_mu_);
  {
    std::unique_lock<std::mutex> drain_lock(drain_mu_);
    drain_cv_.wait(drain_lock, [&] { return pending_ == 0; });
  }
  for (auto& [id, entry] : sessions_) {
    if (!entry->quarantined.load(std::memory_order_acquire)) {
      entry->session.Flush();
    }
  }
}

Result<std::vector<core::FinalizedMessage>> SessionManager::TakeFinalized(
    const std::string& stream_id) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(stream_id);
  if (it == sessions_.end()) {
    return Status::NotFound(
        StrFormat("no session '%s'", stream_id.c_str()));
  }
  // Quiesce this session so the worker's last ProcessBatch (and its
  // finalized output) happens-before our read.
  AwaitSessionIdle(it->second.get());
  if (it->second->quarantined.load(std::memory_order_acquire)) {
    return Status::DataLoss(StrFormat(
        "session '%s' is quarantined; its state is untrusted",
        stream_id.c_str()));
  }
  return it->second->session.TakeFinalized();
}

Status SessionManager::CheckpointAll(const std::string& dir) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  {
    std::unique_lock<std::mutex> drain_lock(drain_mu_);
    drain_cv_.wait(drain_lock, [&] { return pending_ == 0; });
  }
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    checkpoint_failures_counter_->Increment();
    return Status::IoError(StrFormat("cannot create '%s': %s", dir.c_str(),
                                     ec.message().c_str()));
  }
  const uint64_t generation = io::NextGeneration(dir);
  const std::string final_dir = dir + "/" + io::GenerationDirName(generation);
  const std::string staging = final_dir + ".tmp";
  auto failed = [&](Status s) {
    checkpoint_failures_counter_->Increment();
    std::error_code cleanup_ec;
    fs::remove_all(staging, cleanup_ec);  // best-effort; .tmp is ignorable
    return s;
  };
  fs::create_directories(staging, ec);
  if (ec) {
    return failed(Status::IoError(StrFormat(
        "cannot create '%s': %s", staging.c_str(), ec.message().c_str())));
  }
  // Session files first, manifest last: a generation directory without a
  // valid manifest is by definition uncommitted debris, so the manifest
  // write is the per-generation commit point. Sorted-id order (sessions_
  // is an ordered map) keeps the fleet checkpoint deterministic.
  // Quarantined sessions are skipped — their state is untrusted.
  std::vector<std::pair<std::string, std::string>> entries;  // id -> file
  for (const auto& [id, entry] : sessions_) {
    if (entry->quarantined.load(std::memory_order_acquire)) {
      NERGLOB_LOG(kWarning) << "CheckpointAll: skipping quarantined session '"
                            << id << "'";
      continue;
    }
    std::string file = StrFormat("session_%zu.ckpt", entries.size());
    Status s = entry->session.Checkpoint(staging + "/" + file);
    if (!s.ok()) return failed(std::move(s));
    entries.emplace_back(id, std::move(file));
  }
  Status s = io::WriteFileAtomically(
      staging + "/manifest.ngm", [&](io::TensorWriter* writer) -> Status {
        if (fault::InjectFault(fault::kSiteCkptManifestCommit)) {
          return Status::IoError(StrFormat(
              "injected fault at ckpt.manifest_commit (generation %llu)",
              static_cast<unsigned long long>(generation)));
        }
        writer->PutU64(entries.size());
        for (const auto& [id, file] : entries) {
          writer->PutString(id);
          writer->PutString(file);
        }
        return writer->EndRecord(io::kTagServeManifest);
      });
  if (!s.ok()) return failed(std::move(s));
  // Commit: durably rename the staged generation to its final name. From
  // here on RestoreAll/RecoverLatest will see it.
  s = io::RetryPolicy::FromEnv().Run(final_dir.c_str(), [&]() -> Status {
    NERGLOB_RETURN_IF_ERROR(io::FsyncDir(staging));
    if (fault::InjectFault(fault::kSiteCkptRename)) {
      return Status::IoError(StrFormat(
          "injected fault at ckpt.rename (generation commit '%s')",
          final_dir.c_str()));
    }
    std::error_code rename_ec;
    fs::rename(staging, final_dir, rename_ec);
    if (rename_ec) {
      return Status::IoError(StrFormat("rename('%s' -> '%s') failed: %s",
                                       staging.c_str(), final_dir.c_str(),
                                       rename_ec.message().c_str()));
    }
    return io::FsyncDir(dir);
  });
  if (!s.ok()) return failed(std::move(s));
  checkpoints_counter_->Increment();
  PruneGenerations(dir);
  return Status::OK();
}

void SessionManager::PruneGenerations(const std::string& dir) const {
  if (config_.checkpoint_retain == 0) return;
  std::vector<uint64_t> generations = io::ListGenerations(dir);
  if (generations.size() <= config_.checkpoint_retain) return;
  generations.resize(generations.size() - config_.checkpoint_retain);
  for (const uint64_t g : generations) {
    std::error_code ec;
    std::filesystem::remove_all(dir + "/" + io::GenerationDirName(g), ec);
    if (ec) {
      NERGLOB_LOG(kWarning) << "failed pruning checkpoint generation " << g
                            << " under '" << dir << "': " << ec.message();
    }
  }
}

Status SessionManager::RestoreManifestLocked(const std::string& dir) {
  const std::string manifest_path = dir + "/manifest.ngm";
  // Manifest parse is retried as a whole: a transient read failure (or an
  // injected io.open_read/io.read fault) restarts it with nothing staged.
  struct ManifestEntry {
    std::string id;
    std::string file;
  };
  std::vector<ManifestEntry> manifest;
  Status s = io::RetryPolicy::FromEnv().Run(
      manifest_path.c_str(), [&]() -> Status {
        manifest.clear();
        io::TensorReader reader(manifest_path, /*inject_faults=*/true);
        NERGLOB_RETURN_IF_ERROR(reader.NextRecord(io::kTagServeManifest));
        auto fail = [&](const char* what) {
          return reader.Corrupt("serve manifest", what);
        };
        uint64_t count = 0;
        if (!reader.GetU64(&count) || count > reader.RemainingInRecord()) {
          return fail("count");
        }
        for (uint64_t i = 0; i < count; ++i) {
          ManifestEntry entry;
          if (!reader.GetString(&entry.id) || !reader.GetString(&entry.file)) {
            return fail("entry");
          }
          if (entry.file.empty() ||
              entry.file.find('/') != std::string::npos ||
              entry.file.find("..") != std::string::npos) {
            return fail("checkpoint filename");
          }
          manifest.push_back(std::move(entry));
        }
        return reader.ExpectRecordEnd();
      });
  NERGLOB_RETURN_IF_ERROR(s);
  // Two-phase: restore every session into a staging map, commit only when
  // every file validates — a bad file leaves the manager unchanged.
  std::map<std::string, std::unique_ptr<SessionEntry>> staged;
  for (const ManifestEntry& m : manifest) {
    if (sessions_.count(m.id) > 0 || staged.count(m.id) > 0) {
      return Status::AlreadyExists(
          StrFormat("session '%s' from '%s' is already open", m.id.c_str(),
                    manifest_path.c_str()));
    }
    auto entry = std::make_unique<SessionEntry>(m.id, ShardOf(m.id), bundle_,
                                                SessionConfig());
    NERGLOB_RETURN_IF_ERROR(entry->session.Restore(dir + "/" + m.file));
    staged.emplace(m.id, std::move(entry));
  }
  for (auto& [id, entry] : staged) {
    sessions_.emplace(id, std::move(entry));
  }
  sessions_gauge_->Set(static_cast<double>(sessions_.size()));
  return Status::OK();
}

Status SessionManager::RestoreAll(const std::string& dir) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  if (!accepting_) {
    return Status::FailedPrecondition("SessionManager is shut down");
  }
  const std::vector<uint64_t> generations = io::ListGenerations(dir);
  if (generations.empty()) {
    return Status::NotFound(
        StrFormat("no checkpoint found under '%s'", dir.c_str()));
  }
  return RestoreManifestLocked(
      dir + "/" + io::GenerationDirName(generations.back()));
}

Status SessionManager::RecoverLatest(const std::string& dir,
                                     uint64_t* generation) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  if (!accepting_) {
    return Status::FailedPrecondition("SessionManager is shut down");
  }
  std::vector<uint64_t> generations = io::ListGenerations(dir);
  if (generations.empty()) {
    return Status::NotFound(
        StrFormat("no checkpoint found under '%s'", dir.c_str()));
  }
  Status last;
  for (auto it = generations.rbegin(); it != generations.rend(); ++it) {
    const std::string gen_dir = dir + "/" + io::GenerationDirName(*it);
    Status s = RestoreManifestLocked(gen_dir);
    if (s.ok()) {
      if (generation != nullptr) *generation = *it;
      return Status::OK();
    }
    if (s.code() == StatusCode::kAlreadyExists) return s;
    NERGLOB_LOG(kWarning) << "RecoverLatest: generation " << *it << " under '"
                          << dir << "' is invalid (" << s.ToString()
                          << "); falling back";
    last = std::move(s);
  }
  return Status::DataLoss(StrFormat(
      "'%s': %zu checkpoint generation(s) present but none is valid; last "
      "error: %s",
      dir.c_str(), generations.size(), last.ToString().c_str()));
}

SessionManagerStats SessionManager::stats() const {
  SessionManagerStats s;
  s.submitted_batches = submitted_.load(std::memory_order_relaxed);
  s.rejected_batches = rejected_.load(std::memory_order_relaxed);
  s.processed_batches = processed_batches_.load(std::memory_order_relaxed);
  s.processed_messages = processed_messages_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(sessions_mu_);
  s.open_sessions = sessions_.size();
  for (const auto& [id, entry] : sessions_) {
    if (entry->quarantined.load(std::memory_order_acquire)) {
      ++s.quarantined_sessions;
    }
  }
  return s;
}

size_t SessionManager::QueueDepth(size_t shard) const {
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  return shards_[shard]->queue.size();
}

std::vector<std::string> SessionManager::SessionIds() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  std::vector<std::string> ids;
  ids.reserve(sessions_.size());
  for (const auto& [id, entry] : sessions_) ids.push_back(id);
  return ids;
}

}  // namespace nerglob::serve
