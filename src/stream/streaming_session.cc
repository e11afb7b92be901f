#include "stream/streaming_session.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"
#include "io/checkpoint_io.h"
#include "io/tensor_io.h"

namespace nerglob::stream {

StreamingSession::StreamingSession(const core::ModelBundle* bundle,
                                   StreamingSessionConfig config)
    : pipeline_(bundle, config.pipeline) {}

bool StreamingSession::Step(StreamSource* source) {
  return ProcessBatch(source->NextBatch());
}

bool StreamingSession::ProcessBatch(const std::vector<Message>& batch) {
  if (batch.empty()) return false;
  flushed_ = false;
  messages_ += batch.size();
  ++batches_;
  pipeline_.ProcessBatch(batch);
  CollectBatchResults(batch.size());
  return true;
}

bool StreamingSession::ProcessBatchPreEncoded(
    const std::vector<Message>& batch,
    std::vector<lm::EncodeResult> encoded) {
  if (batch.empty()) return false;
  flushed_ = false;
  messages_ += batch.size();
  ++batches_;
  pipeline_.ProcessBatchPreEncoded(batch, std::move(encoded));
  CollectBatchResults(batch.size());
  return true;
}

void StreamingSession::CollectBatchResults(size_t batch_messages) {
  // Drain eviction checkpoints in stream order.
  for (core::FinalizedMessage& f : pipeline_.TakeFinalized()) {
    finalized_.push_back(std::move(f));
  }
  if (metrics::Enabled()) {
    auto& registry = metrics::MetricsRegistry::Global();
    static metrics::Counter* const batches =
        registry.GetCounter("stream.batches_total");
    static metrics::Counter* const messages =
        registry.GetCounter("stream.messages_total");
    batches->Increment();
    messages->Increment(batch_messages);
  }
}

StreamingRunStats StreamingSession::Run(StreamSource* source) {
  core::PipelineMemoryUsage peak;
  while (Step(source)) {
    const core::PipelineMemoryUsage usage = pipeline_.MemoryUsage();
    if (usage.total_bytes > peak.total_bytes) peak = usage;
  }
  Flush();
  StreamingRunStats stats;
  stats.batches = batches_;
  stats.messages = messages_;
  stats.finalized_messages = finalized_.size();
  stats.evicted_messages = pipeline_.evicted_messages();
  stats.peak_memory = peak;
  return stats;
}

void StreamingSession::Flush() {
  if (flushed_) return;
  flushed_ = true;
  const std::vector<int64_t>& live = pipeline_.message_ids();
  std::vector<std::vector<text::EntitySpan>> predictions =
      pipeline_.Predictions(core::PipelineStage::kFullGlobal);
  for (size_t i = 0; i < live.size(); ++i) {
    finalized_.push_back({live[i], std::move(predictions[i])});
  }
}

std::vector<core::FinalizedMessage> StreamingSession::TakeFinalized() {
  std::vector<core::FinalizedMessage> out;
  out.swap(finalized_);
  return out;
}

Status StreamingSession::Checkpoint(const std::string& path) const {
  return io::WriteFileAtomically(
      path, [this](io::TensorWriter* writer) { return CheckpointTo(writer); });
}

Status StreamingSession::CheckpointTo(io::TensorWriter* writer_ptr) const {
  io::TensorWriter& writer = *writer_ptr;
  core::PutCheckpointLayout(&writer);
  writer.PutVarint(batches_);
  writer.PutVarint(messages_);
  writer.PutVarint(flushed_ ? 1 : 0);
  core::PutFinalized(&writer, finalized_);
  NERGLOB_RETURN_IF_ERROR(writer.EndRecord(io::kTagSession));
  return pipeline_.Checkpoint(&writer);
}

Status StreamingSession::Restore(const std::string& path) {
  // Whole-file retry: a transient read failure (or an injected
  // io.open_read / io.read fault) restarts the restore; RestoreFrom's
  // two-phase commit guarantees a failed attempt left *this untouched.
  return io::RetryPolicy::FromEnv().Run(
      "StreamingSession::Restore", [&]() -> Status {
        io::TensorReader reader(path, /*inject_faults=*/true);
        return RestoreFrom(&reader);
      });
}

Status StreamingSession::RestoreFrom(io::TensorReader* reader_ptr) {
  io::TensorReader& reader = *reader_ptr;
  NERGLOB_RETURN_IF_ERROR(reader.NextRecord(io::kTagSession));
  auto fail = [&](const char* what) {
    return reader.Corrupt("session record", what);
  };
  NERGLOB_RETURN_IF_ERROR(core::CheckCheckpointLayout(&reader));
  uint64_t batches = 0, messages = 0, flushed = 0;
  if (!reader.GetVarint(&batches) || !reader.GetVarint(&messages) ||
      !reader.GetVarint(&flushed)) {
    return fail("header");
  }
  std::vector<core::FinalizedMessage> finalized;
  if (!core::GetFinalized(&reader, &finalized)) return fail("finalized");
  NERGLOB_RETURN_IF_ERROR(reader.ExpectRecordEnd());
  // Pipeline restore is two-phase; commit the session fields only after
  // it succeeds so a bad file leaves this session fully untouched.
  NERGLOB_RETURN_IF_ERROR(pipeline_.Restore(&reader));
  batches_ = static_cast<size_t>(batches);
  messages_ = static_cast<size_t>(messages);
  flushed_ = flushed != 0;
  finalized_ = std::move(finalized);
  return Status::OK();
}

}  // namespace nerglob::stream
