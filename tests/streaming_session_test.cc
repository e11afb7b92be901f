// StreamingSession: the bounded-memory runtime driving a StreamSource
// through the pipeline, with checkpointed (finalized) predictions.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "artifact_records.h"
#include "common/metrics.h"
#include "common/scratch_arena.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "harness/experiment.h"
#include "io/tensor_io.h"
#include "lm/encode_cache.h"
#include "stream/streaming_session.h"
#include "tensor/kernels.h"

namespace nerglob {
namespace {

// One small trained system shared by every test in this file (training is
// the expensive part; same miniature configuration as pipeline_test).
class StreamingSessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    system_ = new harness::TrainedSystem(
        harness::BuildTrainedSystem(harness::TinyTestOptions()));
  }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }

  stream::StreamingSession MakeSession(size_t window_messages = 0) const {
    stream::StreamingSessionConfig config;
    config.pipeline = core::DefaultPipelineConfig(system_->bundle);
    config.pipeline.window_messages = window_messages;
    return stream::StreamingSession(&system_->bundle, config);
  }

  std::vector<stream::Message> Dataset(const std::string& name) const {
    data::StreamGenerator gen(&system_->kb_eval);
    return gen.Generate(data::MakeDatasetSpec(name, 0.08));
  }

  static harness::TrainedSystem* system_;
};

harness::TrainedSystem* StreamingSessionTest::system_ = nullptr;

TEST_F(StreamingSessionTest, RunFinalizesEveryMessageExactlyOnce) {
  auto messages = Dataset("D2");
  const size_t window = messages.size() / 4;
  stream::StreamSource source(messages, window / 2);
  auto session = MakeSession(window);
  auto stats = session.Run(&source);

  EXPECT_EQ(stats.messages, messages.size());
  EXPECT_EQ(stats.batches, source.num_messages() / source.batch_size() +
                               (messages.size() % source.batch_size() ? 1 : 0));
  EXPECT_EQ(stats.finalized_messages, messages.size());
  EXPECT_EQ(stats.evicted_messages, messages.size() - window);
  EXPECT_GT(stats.peak_memory.total_bytes, 0u);

  // Exactly one finalized entry per stream message, in stream order.
  ASSERT_EQ(session.finalized().size(), messages.size());
  for (size_t i = 0; i < messages.size(); ++i) {
    EXPECT_EQ(session.finalized()[i].message_id, messages[i].id);
  }
  // The live window stayed bounded.
  EXPECT_LE(session.pipeline().tweet_base().size(), window);
}

TEST_F(StreamingSessionTest, UnboundedRunMatchesProcessAll) {
  // With eviction off, the session is just a driver: the finalized stream
  // must equal the full-global predictions of a directly-driven pipeline.
  auto messages = Dataset("D1");
  const size_t batch = 16;
  stream::StreamSource source(messages, batch);
  auto session = MakeSession(0);
  session.Run(&source);

  core::NerGlobalizer pipeline(&system_->bundle,
                               core::DefaultPipelineConfig(system_->bundle));
  pipeline.ProcessAll(messages, batch);
  auto want = pipeline.Predictions(core::PipelineStage::kFullGlobal);

  ASSERT_EQ(session.finalized().size(), messages.size());
  for (size_t i = 0; i < messages.size(); ++i) {
    EXPECT_EQ(session.finalized()[i].message_id, messages[i].id);
    EXPECT_TRUE(session.finalized()[i].spans == want[i]) << "message " << i;
  }
}

TEST_F(StreamingSessionTest, FlushIsIdempotentUntilNextStep) {
  auto messages = Dataset("D1");
  stream::StreamSource source(messages, messages.size());
  auto session = MakeSession(0);
  ASSERT_TRUE(session.Step(&source));
  session.Flush();
  const size_t after_first = session.finalized().size();
  EXPECT_EQ(after_first, messages.size());
  session.Flush();  // no-op: nothing new was processed
  EXPECT_EQ(session.finalized().size(), after_first);
  // Exhausted source: Step does no work and reports it.
  EXPECT_FALSE(session.Step(&source));
  EXPECT_EQ(session.batches_processed(), 1u);
}

TEST_F(StreamingSessionTest, ProcessBatchMatchesSourceDrivenStep) {
  // Push-based delivery (the way serve::SessionManager shard workers feed a
  // session) must be indistinguishable from pulling the same batches
  // through Step: Step(&s) is defined as ProcessBatch(s.NextBatch()).
  auto messages = Dataset("D1");
  const size_t batch_size = 16;
  stream::StreamSource pulled_source(messages, batch_size);
  auto pulled = MakeSession(0);
  pulled.Run(&pulled_source);

  auto pushed = MakeSession(0);
  stream::StreamSource pushed_source(messages, batch_size);
  std::vector<stream::Message> batch;
  while (!(batch = pushed_source.NextBatch()).empty()) {
    ASSERT_TRUE(pushed.ProcessBatch(batch));
  }
  EXPECT_FALSE(pushed.ProcessBatch({}));  // empty batch: end-of-stream no-op
  pushed.Flush();

  EXPECT_EQ(pushed.batches_processed(), pulled.batches_processed());
  EXPECT_EQ(pushed.messages_processed(), pulled.messages_processed());
  ASSERT_EQ(pushed.finalized().size(), pulled.finalized().size());
  for (size_t i = 0; i < pushed.finalized().size(); ++i) {
    EXPECT_TRUE(pushed.finalized()[i] == pulled.finalized()[i])
        << "message " << i;
  }
}

TEST_F(StreamingSessionTest, ExhaustedSourceStepsDoNoWorkUntilResetResumes) {
  // A driver that keeps Stepping an exhausted source must never spin up
  // phantom batches (the StreamSource exhaustion contract); after Reset
  // the same session resumes processing.
  auto messages = Dataset("D1");
  stream::StreamSource source(messages, messages.size());
  auto session = MakeSession(0);
  ASSERT_TRUE(session.Step(&source));
  const size_t batches = session.batches_processed();
  const size_t processed = session.messages_processed();
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(session.Step(&source));
  }
  EXPECT_EQ(session.batches_processed(), batches);
  EXPECT_EQ(session.messages_processed(), processed);
  source.Reset();
  EXPECT_TRUE(session.Step(&source));
  EXPECT_EQ(session.batches_processed(), batches + 1);
}

TEST_F(StreamingSessionTest, TakeFinalizedDrainsTheBuffer) {
  auto messages = Dataset("D1");
  const size_t window = messages.size() / 3;
  stream::StreamSource source(messages, window);
  auto session = MakeSession(window);
  std::set<int64_t> seen;
  size_t drained = 0;
  while (session.Step(&source)) {
    for (const auto& f : session.TakeFinalized()) {
      EXPECT_TRUE(seen.insert(f.message_id).second) << f.message_id;
      ++drained;
    }
  }
  session.Flush();
  for (const auto& f : session.TakeFinalized()) {
    EXPECT_TRUE(seen.insert(f.message_id).second) << f.message_id;
    ++drained;
  }
  EXPECT_EQ(drained, messages.size());
  EXPECT_TRUE(session.finalized().empty());
}

TEST_F(StreamingSessionTest, ResetSupportsMultiplePasses) {
  auto messages = Dataset("D1");
  stream::StreamSource source(messages, 32);
  auto first = MakeSession(0);
  auto stats1 = first.Run(&source);
  source.Reset();
  auto second = MakeSession(0);
  auto stats2 = second.Run(&source);
  EXPECT_EQ(stats1.messages, stats2.messages);
  EXPECT_EQ(stats1.batches, stats2.batches);
  ASSERT_EQ(first.finalized().size(), second.finalized().size());
  for (size_t i = 0; i < first.finalized().size(); ++i) {
    EXPECT_TRUE(first.finalized()[i].spans == second.finalized()[i].spans);
  }
}

TEST_F(StreamingSessionTest, CheckpointRestoreMatchesUninterruptedRun) {
  // Run A: the whole stream, uninterrupted. Run B: half the stream, then
  // Checkpoint to disk; a fresh session restores the file and continues.
  // The suspended-and-resumed run must be indistinguishable from A —
  // same finalized stream and bit-identical Predictions at every stage.
  const std::string path =
      std::string(::testing::TempDir()) + "/session_checkpoint.bin";
  auto messages = Dataset("D2");
  const size_t window = messages.size() / 4;
  const size_t batch = window / 2;

  stream::StreamSource source_a(messages, batch);
  auto uninterrupted = MakeSession(window);
  uninterrupted.Run(&source_a);

  stream::StreamSource source_b(messages, batch);
  auto first_half = MakeSession(window);
  const size_t half_batches = (messages.size() / batch) / 2;
  for (size_t i = 0; i < half_batches; ++i) {
    ASSERT_TRUE(first_half.Step(&source_b));
  }
  ASSERT_TRUE(first_half.Checkpoint(path).ok());

  auto resumed = MakeSession(window);
  ASSERT_TRUE(resumed.Restore(path).ok());
  // The restored session continues exactly where the checkpoint left off.
  EXPECT_EQ(resumed.batches_processed(), first_half.batches_processed());
  while (resumed.Step(&source_b)) {
  }
  resumed.Flush();

  ASSERT_EQ(resumed.finalized().size(), uninterrupted.finalized().size());
  for (size_t i = 0; i < resumed.finalized().size(); ++i) {
    EXPECT_EQ(resumed.finalized()[i].message_id,
              uninterrupted.finalized()[i].message_id);
    EXPECT_TRUE(resumed.finalized()[i].spans ==
                uninterrupted.finalized()[i].spans)
        << "message " << i;
  }
  constexpr core::PipelineStage kStages[] = {
      core::PipelineStage::kLocalOnly, core::PipelineStage::kMentionExtraction,
      core::PipelineStage::kLocalEmbeddings, core::PipelineStage::kFullGlobal};
  for (core::PipelineStage stage : kStages) {
    auto want = uninterrupted.pipeline().Predictions(stage);
    auto got = resumed.pipeline().Predictions(stage);
    ASSERT_EQ(got.size(), want.size()) << core::PipelineStageName(stage);
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i])
          << core::PipelineStageName(stage) << " message " << i;
    }
  }
  std::remove(path.c_str());
}

TEST_F(StreamingSessionTest, RestoreContinuationMatrixMatchesUninterruptedRun) {
  // One mid-stream checkpoint, taken after evictions and eviction rescans,
  // restored and continued under every threads x encode cache x SIMD tier
  // cell. Restore re-encodes the live window, so every cell must reproduce
  // the uninterrupted run's finalized stream and Predictions() at every
  // stage byte for byte.
  const std::string path =
      std::string(::testing::TempDir()) + "/session_matrix.bin";
  auto messages = Dataset("D2");
  const size_t window = messages.size() / 4;
  const size_t batch = window / 2;

  stream::StreamSource source_a(messages, batch);
  auto uninterrupted = MakeSession(window);
  uninterrupted.Run(&source_a);
  constexpr core::PipelineStage kStages[] = {
      core::PipelineStage::kLocalOnly, core::PipelineStage::kMentionExtraction,
      core::PipelineStage::kLocalEmbeddings, core::PipelineStage::kFullGlobal};
  std::vector<std::vector<std::vector<text::EntitySpan>>> want;
  for (core::PipelineStage stage : kStages) {
    want.push_back(uninterrupted.pipeline().Predictions(stage));
  }

  const size_t checkpoint_batches = (messages.size() / batch) * 3 / 5;
  stream::StreamSource source_b(messages, batch);
  auto first_part = MakeSession(window);
  metrics::SetEnabled(true);
  const metrics::Counter* pruned =
      metrics::MetricsRegistry::Global().GetCounter(
          "stream.pruned_surfaces_total");
  const uint64_t pruned_before = pruned->value();
  for (size_t i = 0; i < checkpoint_batches; ++i) {
    ASSERT_TRUE(first_part.Step(&source_b));
  }
  metrics::SetEnabled(false);
  ASSERT_GT(first_part.pipeline().evicted_messages(), 0u);
  ASSERT_GT(pruned->value(), pruned_before) << "no eviction rescan ran";
  ASSERT_TRUE(first_part.Checkpoint(path).ok());

  std::vector<kern::SimdLevel> tiers = {kern::SimdLevel::kGeneric};
  if (kern::BuiltWithAvx2() && kern::CpuSupportsAvx2()) {
    tiers.push_back(kern::SimdLevel::kAvx2);
  }
  for (const kern::SimdLevel tier : tiers) {
    ASSERT_TRUE(kern::SetSimdLevel(tier));
    for (const size_t threads : {1u, 4u}) {
      SetParallelism(threads);
      for (const bool cache_on : {false, true}) {
        const std::string cell =
            StrFormat("%s x %zu threads x cache %s", kern::SimdLevelName(tier),
                      threads, cache_on ? "on" : "off");
        lm::EncodeCache cache(8 * 1024 * 1024, 4);
        lm::EncodeCache::SetGlobalForTesting(cache_on ? &cache : nullptr);
        stream::StreamSource source(messages, batch);
        for (size_t i = 0; i < checkpoint_batches; ++i) source.NextBatch();
        auto resumed = MakeSession(window);
        ASSERT_TRUE(resumed.Restore(path).ok()) << cell;
        while (resumed.Step(&source)) {
        }
        resumed.Flush();
        lm::EncodeCache::SetGlobalForTesting(nullptr);

        EXPECT_TRUE(resumed.finalized() == uninterrupted.finalized()) << cell;
        for (size_t s = 0; s < want.size(); ++s) {
          EXPECT_TRUE(resumed.pipeline().Predictions(kStages[s]) == want[s])
              << cell << " " << core::PipelineStageName(kStages[s]);
        }
      }
    }
  }
  kern::ResetSimdLevel();
  SetParallelism(0);
  std::remove(path.c_str());
}

TEST_F(StreamingSessionTest, RestoreRejectsCorruptCheckpoint) {
  const std::string path =
      std::string(::testing::TempDir()) + "/session_corrupt.bin";
  auto messages = Dataset("D1");
  stream::StreamSource source(messages, 32);
  auto session = MakeSession(0);
  ASSERT_TRUE(session.Step(&source));
  ASSERT_TRUE(session.Checkpoint(path).ok());

  // Truncate the checkpoint; Restore must fail cleanly and leave the
  // target session fully usable.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 3));
  }
  auto target = MakeSession(0);
  EXPECT_FALSE(target.Restore(path).ok());
  EXPECT_EQ(target.batches_processed(), 0u);  // untouched by the failed load
  EXPECT_TRUE(target.Step(&source));          // still works
  std::remove(path.c_str());
}

TEST_F(StreamingSessionTest, SteadyStateProcessingNeverGrowsTheArena) {
  // The zero-allocation acceptance criterion (ISSUE/DESIGN.md): once a
  // stream has exercised its peak shapes, ProcessBatch performs no heap
  // allocation for activations — i.e. the scratch arena records zero
  // growth events. Two identical passes: pass 1 warms this thread's arena
  // (parallelism 1 keeps all inference inline on the calling thread),
  // pass 2 must leave the growth counter untouched.
  SetParallelism(1);
  auto messages = Dataset("D1");
  const size_t window = messages.size() / 3;
  {
    stream::StreamSource warm(messages, 16);
    auto warm_session = MakeSession(window);
    warm_session.Run(&warm);
  }
  common::ScratchArena& arena = common::ScratchArena::ThreadLocal();
  const uint64_t warm_allocs = arena.heap_allocs();
  EXPECT_GT(warm_allocs, 0u);  // the warm pass did route through the arena

  stream::StreamSource source(messages, 16);
  auto session = MakeSession(window);
  auto stats = session.Run(&source);
  EXPECT_EQ(stats.messages, messages.size());
  EXPECT_EQ(arena.heap_allocs(), warm_allocs)
      << "steady-state ProcessBatch grew the scratch arena";
  SetParallelism(0);
}

TEST_F(StreamingSessionTest, RestoreRecomputesEveryPhraseEmbedding) {
  // The checkpoint carries no phrase embeddings; the restored pools must
  // still hold every mention's embedding, bit for bit.
  const std::string path =
      std::string(::testing::TempDir()) + "/session_embeddings.bin";
  auto messages = Dataset("D2");
  const size_t window = messages.size() / 4;
  stream::StreamSource source(messages, window / 2);
  auto session = MakeSession(window);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(session.Step(&source));
  ASSERT_TRUE(session.Checkpoint(path).ok());
  auto restored = MakeSession(window);
  ASSERT_TRUE(restored.Restore(path).ok());

  const stream::CandidateBase& want = session.pipeline().candidate_base();
  const stream::CandidateBase& got = restored.pipeline().candidate_base();
  ASSERT_EQ(got.surfaces(), want.surfaces());
  ASSERT_GT(want.TotalMentions(), 0u);
  for (const std::string& surface : want.surfaces()) {
    const auto& a = want.Mentions(surface);
    const auto& b = got.Mentions(surface);
    ASSERT_EQ(a.size(), b.size()) << surface;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].local_embedding.size(), b[i].local_embedding.size());
      EXPECT_EQ(std::memcmp(a[i].local_embedding.data(),
                            b[i].local_embedding.data(),
                            a[i].local_embedding.size() * sizeof(float)),
                0)
          << surface << " mention " << i;
    }
  }
  std::remove(path.c_str());
}

TEST_F(StreamingSessionTest, CheckpointHoldsOnlyWhatTheWindowCannotGiveBack) {
  // The trie, the seed support, the local type votes and the cluster
  // partitions are all derived from the live window, so a checkpoint has
  // no record for them.
  const std::string path =
      std::string(::testing::TempDir()) + "/session_records.bin";
  auto messages = Dataset("D2");
  const size_t window = messages.size() / 4;
  stream::StreamSource source(messages, window / 2);
  auto session = MakeSession(window);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(session.Step(&source));
  ASSERT_GT(session.pipeline().trie().size(), 0u);
  ASSERT_TRUE(session.Checkpoint(path).ok());
  std::vector<uint32_t> tags;
  for (const auto& record : test_util::SplitRecords(test_util::ReadBytes(path))) {
    tags.push_back(record.first);
  }
  EXPECT_EQ(tags, (std::vector<uint32_t>{io::kTagSession, io::kTagCheckpoint,
                                         io::kTagTweetBase,
                                         io::kTagCandidateBase,
                                         io::kTagPipelineState}));
  std::remove(path.c_str());
}

TEST_F(StreamingSessionTest, MutatedSessionAndHeaderRecordsRestoreToATypedStatus) {
  // Deterministic mutational fuzz of the kTagSession record and the
  // kTagCheckpoint header. Each mutated payload is re-framed with a valid
  // checksum, so it reaches the parsers: every one must restore to OK or a
  // typed error, never a crash, and a failed restore leaves the session
  // untouched. A 6-message window keeps each restore's re-encode cheap.
  const std::string path =
      std::string(::testing::TempDir()) + "/session_fuzz.bin";
  auto messages = Dataset("D1");
  messages.resize(16);
  stream::StreamSource source(messages, 4);
  auto session = MakeSession(6);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(session.Step(&source));
  ASSERT_FALSE(session.finalized().empty());  // the session record holds spans
  ASSERT_TRUE(session.Checkpoint(path).ok());
  const auto records = test_util::SplitRecords(test_util::ReadBytes(path));
  ASSERT_GE(records.size(), 2u);
  ASSERT_EQ(records[0].first, io::kTagSession);
  ASSERT_EQ(records[1].first, io::kTagCheckpoint);

  size_t rejected = 0;
  for (size_t r = 0; r < 2; ++r) {
    for (const std::string& mutant : test_util::Mutants(records[r].second)) {
      ASSERT_TRUE(test_util::WriteRecords(path, records, r, mutant).ok());
      auto target = MakeSession(6);
      const Status st = target.Restore(path);
      if (st.ok()) continue;
      ++rejected;
      EXPECT_TRUE(st.code() == StatusCode::kInvalidArgument ||
                  st.code() == StatusCode::kIoError ||
                  st.code() == StatusCode::kFailedPrecondition)
          << "record " << r << ": " << st.ToString();
      EXPECT_EQ(target.batches_processed(), 0u);
      EXPECT_TRUE(target.pipeline().message_ids().empty());
    }
  }
  // Every truncation of either record drops a field, so at least those
  // mutants must have reached a parser and been refused.
  EXPECT_GE(rejected, records[0].second.size() + records[1].second.size());
  std::remove(path.c_str());
}

TEST_F(StreamingSessionTest, RestoreRejectsCheckpointWithoutLayoutVersion) {
  // Checkpoints from before the layout version (which also stored phrase
  // embeddings) open with the bundle fingerprint. They are refused as a
  // version mismatch instead of being misparsed.
  const std::string path =
      std::string(::testing::TempDir()) + "/session_unversioned.bin";
  {
    io::TensorWriter writer(path);
    writer.PutU64(1);  // batches
    writer.PutU64(4);  // messages
    writer.PutU32(0);  // flushed
    writer.PutU64(0);  // finalized count
    ASSERT_TRUE(writer.EndRecord(io::kTagSession).ok());
    writer.PutString(system_->bundle.Fingerprint());
    writer.PutF32(system_->bundle.config().cluster_threshold);
    ASSERT_TRUE(writer.EndRecord(io::kTagCheckpoint).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto session = MakeSession(0);
  const Status s = session.Restore(path);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_NE(s.message().find("layout version"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(session.batches_processed(), 0u);
  std::remove(path.c_str());
}

TEST_F(StreamingSessionTest, RestoreRejectsLayoutThreeSessionRecord) {
  // A layout-3 session record opens with a u64 batch count, not the
  // layout. Its low half is refused as a version mismatch, and a count
  // that happens to equal the current version (7) still fails as layout
  // drift.
  const std::string path =
      std::string(::testing::TempDir()) + "/session_layout3.bin";
  for (const uint64_t batches : {1u, 7u}) {
    {
      io::TensorWriter writer(path);
      writer.PutU64(batches);
      writer.PutU64(4 * batches);  // messages
      writer.PutU32(0);            // flushed
      writer.PutU64(0);            // finalized count
      ASSERT_TRUE(writer.EndRecord(io::kTagSession).ok());
      writer.PutU32(3);  // layout version
      writer.PutString(system_->bundle.Fingerprint());
      ASSERT_TRUE(writer.EndRecord(io::kTagCheckpoint).ok());
      ASSERT_TRUE(writer.Finish().ok());
    }
    auto session = MakeSession(0);
    const Status s = session.Restore(path);
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition)
        << "batches " << batches << ": " << s.ToString();
    EXPECT_EQ(session.batches_processed(), 0u);
  }
  std::remove(path.c_str());
}

TEST_F(StreamingSessionTest, RestoreRejectsMismatchedWindowConfig) {
  const std::string path =
      std::string(::testing::TempDir()) + "/session_config.bin";
  auto messages = Dataset("D1");
  stream::StreamSource source(messages, 32);
  auto session = MakeSession(64);
  ASSERT_TRUE(session.Step(&source));
  ASSERT_TRUE(session.Checkpoint(path).ok());

  auto other_window = MakeSession(128);
  Status s = other_window.Restore(path);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nerglob
