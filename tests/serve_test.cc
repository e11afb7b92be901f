// serve::SessionManager: the sharded multi-session serving runtime. The
// load-bearing property is determinism under concurrency — N sessions
// multiplexed over one bundle must produce byte-identical output to a
// single-threaded replay — plus the admission-control and lifecycle edges
// (backpressure, drain, shutdown, fleet checkpoint).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "artifact_records.h"
#include "common/string_util.h"
#include "harness/experiment.h"
#include "io/checkpoint_io.h"
#include "io/tensor_io.h"
#include "lm/encode_cache.h"
#include "serve/session_manager.h"
#include "stream/message.h"
#include "text/tokenizer.h"

namespace nerglob {
namespace {

// One small trained system shared by every test in this file (training is
// the expensive part; same miniature configuration as pipeline_test).
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    system_ = new harness::TrainedSystem(
        harness::BuildTrainedSystem(harness::TinyTestOptions()));
  }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }

  static serve::SessionManagerConfig ManagerConfig(size_t num_shards,
                                                   size_t window,
                                                   size_t queue_capacity = 0,
                                                   size_t high_watermark = 0,
                                                   size_t low_watermark = 0) {
    serve::SessionManagerConfig config;
    config.num_shards = num_shards;
    config.queue_capacity = queue_capacity;
    config.high_watermark = high_watermark;
    config.low_watermark = low_watermark;
    config.pipeline = core::DefaultPipelineConfig(system_->bundle);
    config.pipeline.window_messages = window;
    return config;
  }

  static std::vector<stream::Message> Dataset(const std::string& name) {
    data::StreamGenerator gen(&system_->kb_eval);
    return gen.Generate(data::MakeDatasetSpec(name, 0.08));
  }

  // The batch sequence a StreamSource would deliver for `messages`.
  static std::vector<std::vector<stream::Message>> Batches(
      const std::vector<stream::Message>& messages, size_t batch_size) {
    stream::StreamSource source(messages, batch_size);
    std::vector<std::vector<stream::Message>> out;
    std::vector<stream::Message> batch;
    while (!(batch = source.NextBatch()).empty()) out.push_back(std::move(batch));
    return out;
  }

  // Ground truth: the same batches through one single-threaded session.
  static std::vector<core::FinalizedMessage> SequentialReplay(
      const std::vector<std::vector<stream::Message>>& batches, size_t window) {
    stream::StreamingSessionConfig config;
    config.pipeline = core::DefaultPipelineConfig(system_->bundle);
    config.pipeline.window_messages = window;
    stream::StreamingSession session(&system_->bundle, config);
    for (const auto& batch : batches) session.ProcessBatch(batch);
    session.Flush();
    return session.TakeFinalized();
  }

  // Distinct per-session stream: the shared dataset rotated by `k`.
  static std::vector<stream::Message> Rotate(std::vector<stream::Message> msgs,
                                             size_t k) {
    std::rotate(msgs.begin(),
                msgs.begin() + static_cast<ptrdiff_t>(k % msgs.size()),
                msgs.end());
    return msgs;
  }

  // Submits every batch in order, retrying on transient overload — the
  // documented client response to Status::Unavailable.
  static void SubmitAll(serve::SessionManager* manager, const std::string& id,
                        const std::vector<std::vector<stream::Message>>& batches) {
    for (const auto& batch : batches) {
      while (true) {
        Status s = manager->Submit(id, batch);
        if (s.ok()) break;
        if (s.code() != StatusCode::kUnavailable) {
          ADD_FAILURE() << "Submit(" << id << "): " << s.ToString();
          return;
        }
        std::this_thread::yield();
      }
    }
  }

  static harness::TrainedSystem* system_;
};

harness::TrainedSystem* ServeTest::system_ = nullptr;

TEST_F(ServeTest, ConcurrentSessionsMatchSequentialReplay) {
  // 6 tenants on 4 shards, submitted from 3 client threads: every
  // session's output must be byte-identical to its own single-threaded
  // replay, no matter how the shards interleave.
  auto messages = Dataset("D2");
  const size_t window = messages.size() / 4;
  const size_t batch_size = 8;
  constexpr size_t kSessions = 6;

  std::vector<std::vector<std::vector<stream::Message>>> per_session;
  for (size_t s = 0; s < kSessions; ++s) {
    per_session.push_back(Batches(Rotate(messages, s * 17 + 1), batch_size));
  }

  serve::SessionManager manager(&system_->bundle, ManagerConfig(4, window));
  EXPECT_EQ(manager.num_shards(), 4u);
  std::vector<std::string> ids;
  for (size_t s = 0; s < kSessions; ++s) {
    ids.push_back("stream-" + std::to_string(s));
    ASSERT_TRUE(manager.Open(ids.back()).ok());
  }

  std::vector<std::thread> clients;
  for (size_t t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      for (size_t s = t; s < kSessions; s += 3) {
        SubmitAll(&manager, ids[s], per_session[s]);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  manager.FlushAll();

  size_t total_batches = 0;
  for (size_t s = 0; s < kSessions; ++s) {
    auto got = manager.TakeFinalized(ids[s]);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = SequentialReplay(per_session[s], window);
    ASSERT_EQ(got->size(), want.size()) << ids[s];
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE((*got)[i] == want[i]) << ids[s] << " message " << i;
    }
    total_batches += per_session[s].size();
  }

  const serve::SessionManagerStats stats = manager.stats();
  EXPECT_EQ(stats.submitted_batches, total_batches);
  EXPECT_EQ(stats.processed_batches, total_batches);
  EXPECT_EQ(stats.processed_messages, kSessions * messages.size());
  EXPECT_EQ(stats.open_sessions, kSessions);
}

TEST_F(ServeTest, SharedEncodeCacheMatchesSequentialReplay) {
  // Cross-session duplicates are served by the process-wide encode cache:
  // five sessions replay rotations of one dataset on four shards, so every
  // message reaches several workers, which read and fill one cache
  // concurrently. Each session's finalized stream must stay byte-identical
  // to its own uncached, single-threaded replay.
  auto messages = Dataset("D2");
  const size_t window = messages.size() / 4;
  const size_t batch_size = 8;
  constexpr size_t kSessions = 5;

  std::vector<std::vector<std::vector<stream::Message>>> per_session;
  std::vector<std::vector<core::FinalizedMessage>> want;
  for (size_t s = 0; s < kSessions; ++s) {
    per_session.push_back(Batches(Rotate(messages, s * 13 + 3), batch_size));
    want.push_back(SequentialReplay(per_session[s], window));
  }

  // The manager is declared after the guard, so its workers are joined
  // before the cache is uninstalled and destroyed, even on an early return.
  lm::EncodeCache cache(/*budget_bytes=*/64u << 20, /*shards=*/8);
  lm::EncodeCache::SetGlobalForTesting(&cache);
  struct Uninstall {
    ~Uninstall() { lm::EncodeCache::SetGlobalForTesting(nullptr); }
  } uninstall;
  serve::SessionManager manager(&system_->bundle, ManagerConfig(4, window));
  std::vector<std::string> ids;
  for (size_t s = 0; s < kSessions; ++s) {
    ids.push_back("cached-" + std::to_string(s));
    ASSERT_TRUE(manager.Open(ids.back()).ok());
  }

  std::vector<std::thread> clients;
  for (size_t t = 0; t < 2; ++t) {
    clients.emplace_back([&, t] {
      for (size_t s = t; s < kSessions; s += 2) {
        SubmitAll(&manager, ids[s], per_session[s]);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  manager.FlushAll();

  for (size_t s = 0; s < kSessions; ++s) {
    auto got = manager.TakeFinalized(ids[s]);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->size(), want[s].size()) << ids[s];
    for (size_t i = 0; i < want[s].size(); ++i) {
      EXPECT_TRUE((*got)[i] == want[s][i]) << ids[s] << " message " << i;
    }
  }

  const serve::SessionManagerStats stats = manager.stats();
  uint64_t total_batches = 0;
  for (const auto& batches : per_session) total_batches += batches.size();
  EXPECT_EQ(stats.processed_batches, total_batches);
  EXPECT_EQ(stats.processed_messages, kSessions * messages.size());
  EXPECT_GT(cache.StatsSnapshot().hits, 0u);
}

TEST_F(ServeTest, BackpressureRejectsWithUnavailableThenRecovers) {
  // Pause() keeps the worker from draining, so the queue fills
  // deterministically: once the high watermark trips, Submit returns the
  // documented Unavailable status until the backlog drains.
  auto messages = Dataset("D1");
  auto batches = Batches(messages, 4);
  ASSERT_GE(batches.size(), 4u);

  serve::SessionManager manager(
      &system_->bundle,
      ManagerConfig(1, 0, /*queue_capacity=*/2));
  ASSERT_TRUE(manager.Open("s").ok());
  manager.Pause();

  EXPECT_TRUE(manager.Submit("s", batches[0]).ok());
  EXPECT_TRUE(manager.Submit("s", batches[1]).ok());
  EXPECT_EQ(manager.QueueDepth(0), 2u);
  Status overloaded = manager.Submit("s", batches[2]);
  EXPECT_EQ(overloaded.code(), StatusCode::kUnavailable);
  EXPECT_EQ(manager.Submit("s", batches[2]).code(), StatusCode::kUnavailable);

  manager.Resume();
  manager.Drain();
  EXPECT_EQ(manager.QueueDepth(0), 0u);
  // Drain is a barrier, not a shutdown: the backlog is gone, so the shard
  // accepts again and the late batches complete normally.
  EXPECT_TRUE(manager.Submit("s", batches[2]).ok());
  manager.FlushAll();

  const serve::SessionManagerStats stats = manager.stats();
  EXPECT_EQ(stats.submitted_batches, 3u);
  EXPECT_EQ(stats.rejected_batches, 2u);
  EXPECT_EQ(stats.processed_batches, 3u);
}

TEST_F(ServeTest, HighWatermarkTripsBelowHardCapacity) {
  // high_watermark < queue_capacity: admission control rejects at the
  // watermark even though the queue has headroom.
  auto batches = Batches(Dataset("D1"), 4);
  serve::SessionManager manager(
      &system_->bundle,
      ManagerConfig(1, 0, /*queue_capacity=*/4, /*high_watermark=*/2,
                    /*low_watermark=*/0));
  EXPECT_EQ(manager.queue_capacity(), 4u);
  ASSERT_TRUE(manager.Open("s").ok());
  manager.Pause();
  EXPECT_TRUE(manager.Submit("s", batches[0]).ok());
  EXPECT_TRUE(manager.Submit("s", batches[1]).ok());
  EXPECT_EQ(manager.Submit("s", batches[2]).code(), StatusCode::kUnavailable);
  manager.Resume();
  manager.Drain();
  EXPECT_TRUE(manager.Submit("s", batches[2]).ok());
}

TEST_F(ServeTest, ShutdownRejectsNewWorkButKeepsResultsReadable) {
  auto messages = Dataset("D1");
  auto batches = Batches(messages, 8);
  serve::SessionManager manager(&system_->bundle, ManagerConfig(2, 0));
  ASSERT_TRUE(manager.Open("s").ok());
  SubmitAll(&manager, "s", batches);
  manager.Shutdown();
  manager.Shutdown();  // idempotent

  EXPECT_EQ(manager.Submit("s", batches[0]).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(manager.Open("t").code(), StatusCode::kFailedPrecondition);

  // Everything submitted before the shutdown drained and stays readable.
  ASSERT_TRUE(manager.Flush("s").ok());
  auto got = manager.TakeFinalized("s");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), messages.size());
}

TEST_F(ServeTest, CheckpointAllRestoreAllContinuesBitIdentically) {
  // Stop a 3-tenant fleet mid-stream, checkpoint it, restore onto a fresh
  // manager, finish the streams there: output must equal an uninterrupted
  // single-threaded replay — including finalized messages that were
  // sitting uncollected in the sessions at checkpoint time.
  const std::string dir =
      std::string(::testing::TempDir()) + "/serve_fleet_ckpt";
  std::filesystem::remove_all(dir);
  auto messages = Dataset("D2");
  const size_t window = messages.size() / 4;
  constexpr size_t kSessions = 3;

  std::vector<std::vector<std::vector<stream::Message>>> per_session;
  std::vector<std::string> ids;
  for (size_t s = 0; s < kSessions; ++s) {
    per_session.push_back(Batches(Rotate(messages, s * 31 + 7), 8));
    ids.push_back("ckpt-" + std::to_string(s));
  }

  serve::SessionManager first(&system_->bundle, ManagerConfig(2, window));
  for (size_t s = 0; s < kSessions; ++s) {
    ASSERT_TRUE(first.Open(ids[s]).ok());
    const size_t half = per_session[s].size() / 2;
    for (size_t b = 0; b < half; ++b) {
      SubmitAll(&first, ids[s], {per_session[s][b]});
    }
  }
  ASSERT_TRUE(first.CheckpointAll(dir).ok());
  first.Shutdown();

  serve::SessionManager second(&system_->bundle, ManagerConfig(2, window));
  ASSERT_TRUE(second.RestoreAll(dir).ok());
  EXPECT_EQ(second.SessionIds(), ids);
  for (size_t s = 0; s < kSessions; ++s) {
    for (size_t b = per_session[s].size() / 2; b < per_session[s].size(); ++b) {
      SubmitAll(&second, ids[s], {per_session[s][b]});
    }
  }
  second.FlushAll();

  for (size_t s = 0; s < kSessions; ++s) {
    auto got = second.TakeFinalized(ids[s]);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = SequentialReplay(per_session[s], window);
    ASSERT_EQ(got->size(), want.size()) << ids[s];
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE((*got)[i] == want[i]) << ids[s] << " message " << i;
    }
  }

  // Restoring over a clashing id fails without opening any manifest
  // session (two-phase).
  serve::SessionManager third(&system_->bundle, ManagerConfig(2, window));
  ASSERT_TRUE(third.Open(ids[1]).ok());
  Status clash = third.RestoreAll(dir);
  EXPECT_EQ(clash.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(third.SessionIds(), std::vector<std::string>{ids[1]});
  std::filesystem::remove_all(dir);
}

TEST_F(ServeTest, MutatedManifestRestoresToATypedStatus) {
  // Deterministic mutational fuzz of the `.ngm` manifest. Each mutated
  // payload is re-framed with a valid checksum, so it reaches the parser:
  // every RestoreAll must return OK or a typed error, never crash, and a
  // failed one opens no session.
  const std::string dir =
      std::string(::testing::TempDir()) + "/serve_manifest_fuzz";
  std::filesystem::remove_all(dir);
  auto batches = Batches(Dataset("D1"), 4);
  {
    serve::SessionManager manager(&system_->bundle, ManagerConfig(1, 6));
    for (const char* id : {"a", "b"}) {
      ASSERT_TRUE(manager.Open(id).ok());
      SubmitAll(&manager, id, {batches[0], batches[1]});
    }
    ASSERT_TRUE(manager.CheckpointAll(dir).ok());
  }
  const std::string manifest =
      dir + "/" + io::GenerationDirName(1) + "/manifest.ngm";
  const auto records = test_util::SplitRecords(test_util::ReadBytes(manifest));
  ASSERT_EQ(records.size(), 1u);
  ASSERT_EQ(records[0].first, io::kTagServeManifest);

  size_t rejected = 0;
  for (const std::string& mutant : test_util::Mutants(records[0].second)) {
    ASSERT_TRUE(test_util::WriteRecords(manifest, records, 0, mutant).ok());
    serve::SessionManager target(&system_->bundle, ManagerConfig(1, 6));
    const Status st = target.RestoreAll(dir);
    if (st.ok()) continue;
    ++rejected;
    EXPECT_TRUE(st.code() == StatusCode::kInvalidArgument ||
                st.code() == StatusCode::kIoError ||
                st.code() == StatusCode::kFailedPrecondition ||
                st.code() == StatusCode::kNotFound ||
                st.code() == StatusCode::kAlreadyExists)
        << st.ToString();
    EXPECT_TRUE(target.SessionIds().empty()) << st.ToString();
  }
  // Every truncation drops a field, so at least those mutants must have
  // reached the parser and been refused.
  EXPECT_GE(rejected, records[0].second.size());
  std::filesystem::remove_all(dir);
}

TEST_F(ServeTest, LifecycleErrorsAreTyped) {
  auto batches = Batches(Dataset("D1"), 8);
  serve::SessionManager manager(&system_->bundle, ManagerConfig(2, 0));
  EXPECT_EQ(manager.Submit("nope", batches[0]).code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.Close("nope").code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.Flush("nope").code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.TakeFinalized("nope").status().code(),
            StatusCode::kNotFound);

  ASSERT_TRUE(manager.Open("s").ok());
  EXPECT_EQ(manager.Open("s").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(manager.Submit("s", {}).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(manager.Submit("s", batches[0]).ok());
  EXPECT_TRUE(manager.Close("s").ok());
  // Close waited for the queued batch, then dropped the session.
  EXPECT_EQ(manager.Submit("s", batches[0]).code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.stats().open_sessions, 0u);
  EXPECT_EQ(manager.stats().processed_batches, 1u);
}

TEST_F(ServeTest, SubmitRejectsMatchFormsEvictionCannotSplit) {
  // Eviction splits a surface on ' ' to remove its trie form, so a
  // caller-built token whose matching form is empty or holds whitespace
  // would pin its form in the trie. Submit names the message and token.
  auto batches = Batches(Dataset("D1"), 8);
  serve::SessionManager manager(&system_->bundle, ManagerConfig(2, 16));
  ASSERT_TRUE(manager.Open("s").ok());
  for (const char* bad : {"new york", "", "tab\there"}) {
    std::vector<stream::Message> batch = batches[0];
    ASSERT_GE(batch[3].tokens.size(), 2u);
    batch[3].tokens[1].match = bad;
    const Status s = manager.Submit("s", batch);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
    EXPECT_NE(s.message().find(StrFormat(
                  "message %lld token 1",
                  static_cast<long long>(batch[3].id))),
              std::string::npos)
        << s.ToString();
  }
  EXPECT_TRUE(manager.Submit("s", batches[0]).ok());
  manager.Drain();
  EXPECT_EQ(manager.stats().submitted_batches, 1u);
}

TEST_F(ServeTest, SubmitRejectsTokenOffsetsOutsideTheText) {
  // A token's spelling is the slice of its message text that its offsets
  // span, so offsets must satisfy begin <= end <= text size. Submit names
  // the message and token before any session state is touched.
  auto batches = Batches(Dataset("D1"), 8);
  serve::SessionManager manager(&system_->bundle, ManagerConfig(2, 16));
  ASSERT_TRUE(manager.Open("s").ok());
  const uint32_t size = static_cast<uint32_t>(batches[0][3].text.size());
  struct Offsets {
    uint32_t begin, end;
  };
  for (const Offsets bad : {Offsets{0, size + 1}, Offsets{size + 1, size + 1},
                            Offsets{2, 1}, Offsets{UINT32_MAX, 0}}) {
    std::vector<stream::Message> batch = batches[0];
    ASSERT_GE(batch[3].tokens.size(), 2u);
    batch[3].tokens[1].begin = bad.begin;
    batch[3].tokens[1].end = bad.end;
    const Status s = manager.Submit("s", batch);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
    EXPECT_NE(s.message().find(StrFormat(
                  "message %lld token 1",
                  static_cast<long long>(batch[3].id))),
              std::string::npos)
        << s.ToString();
  }
  // An empty token at the very end of the text is in range.
  std::vector<stream::Message> edge = batches[0];
  edge[3].tokens[1].begin = size;
  edge[3].tokens[1].end = size;
  EXPECT_TRUE(manager.Submit("s", edge).ok());
  manager.Drain();
  EXPECT_EQ(manager.stats().submitted_batches, 1u);
}

// Submits `hostile` after two ordinary batches, then drains and flushes:
// the session must stay healthy, and every finalized span must lie inside
// its message's token list and start inside the encoded prefix.
void ExpectHostileMessageIsServed(serve::SessionManager* manager,
                                  const std::vector<stream::Message>& context,
                                  const stream::Message& hostile,
                                  size_t max_seq_len) {
  ASSERT_TRUE(manager->Open("hostile").ok());
  std::map<int64_t, size_t> token_counts;
  for (const stream::Message& m : context) token_counts[m.id] = m.tokens.size();
  token_counts[hostile.id] = hostile.tokens.size();
  const size_t half = context.size() / 2;
  ASSERT_TRUE(manager->Submit("hostile", {context.begin(),
                                          context.begin() + half}).ok());
  ASSERT_TRUE(manager->Submit("hostile", {context.begin() + half,
                                          context.end()}).ok());
  const Status submitted = manager->Submit("hostile", {hostile});
  ASSERT_TRUE(submitted.ok()) << submitted.ToString();
  manager->Drain();
  ASSERT_TRUE(manager->Flush("hostile").ok());
  EXPECT_EQ(manager->stats().quarantined_sessions, 0u);

  auto finalized = manager->TakeFinalized("hostile");
  ASSERT_TRUE(finalized.ok()) << finalized.status().ToString();
  ASSERT_EQ(finalized->size(), token_counts.size());
  bool saw_hostile = false;
  for (const core::FinalizedMessage& m : *finalized) {
    ASSERT_EQ(token_counts.count(m.message_id), 1u);
    saw_hostile = saw_hostile || m.message_id == hostile.id;
    for (const text::EntitySpan& span : m.spans) {
      EXPECT_LT(span.begin_token, span.end_token) << "message " << m.message_id;
      EXPECT_LT(span.begin_token, max_seq_len) << "message " << m.message_id;
      EXPECT_LE(span.end_token, token_counts[m.message_id])
          << "message " << m.message_id;
    }
  }
  EXPECT_TRUE(saw_hostile);
}

TEST_F(ServeTest, TenThousandTokenMessageIsServedInsideItsEncodedPrefix) {
  // The encoder reads only the first max_seq_len tokens; a message far
  // longer than that still goes through every stage, and the spans it
  // yields stay inside the tokens the pipeline can see.
  constexpr size_t kTokens = 10000;
  auto messages = Dataset("D1");
  const std::vector<stream::Message> context(messages.begin(),
                                             messages.begin() + 16);
  std::string text;
  for (size_t i = 0, tokens = 0; tokens < kTokens; ++i) {
    const stream::Message& m = messages[i % messages.size()];
    text += m.text;
    text += ' ';
    tokens += m.tokens.size();
  }
  stream::Message hostile;
  hostile.id = 1000000;
  hostile.tokens = text::Tokenizer().Tokenize(text);
  hostile.text = text.substr(0, hostile.tokens[kTokens - 1].end);
  hostile.tokens = text::Tokenizer().Tokenize(hostile.text);
  ASSERT_EQ(hostile.tokens.size(), kTokens);

  serve::SessionManager manager(&system_->bundle, ManagerConfig(2, 64));
  ExpectHostileMessageIsServed(&manager, context, hostile,
                               system_->bundle.model().config().max_seq_len);
}

TEST_F(ServeTest, InvalidUtf8MessageIsServed) {
  // Message text is bytes, not validated UTF-8: every high byte and a lone
  // lead byte (0xC3) must tokenize and flow through the pipeline.
  auto messages = Dataset("D1");
  const std::vector<stream::Message> context(messages.begin(),
                                             messages.begin() + 16);
  std::string text = messages[0].text + " caf\xC3 ";
  for (int b = 0x80; b <= 0xFF; ++b) {
    text += static_cast<char>(b);
    if (b % 8 == 7) text += ' ';
  }
  text += " " + messages[1].text;
  stream::Message hostile;
  hostile.id = 1000000;
  hostile.text = text;
  hostile.tokens = text::Tokenizer().Tokenize(text);
  ASSERT_FALSE(hostile.tokens.empty());

  serve::SessionManager manager(&system_->bundle, ManagerConfig(2, 64));
  ExpectHostileMessageIsServed(&manager, context, hostile,
                               system_->bundle.model().config().max_seq_len);
}

TEST_F(ServeTest, ShardPinningIsDeterministic) {
  serve::SessionManager manager(&system_->bundle, ManagerConfig(4, 0));
  for (const char* id : {"a", "stream-1", "a-much-longer-stream-name"}) {
    EXPECT_EQ(manager.ShardOf(id), manager.ShardOf(id));
    EXPECT_LT(manager.ShardOf(id), manager.num_shards());
  }
}

}  // namespace
}  // namespace nerglob
