// Deterministic fault injection (common::FaultInjector) and the
// crash-safety machinery built on it: retry absorption, atomic file
// writes, generation-numbered fleet checkpoints, RecoverLatest fallback,
// and serve-layer quarantine. The load-bearing property throughout: a
// fault at any single registered site never costs committed data — the
// fleet recovered from the last committed generation is bit-identical to
// an uninterrupted run (docs/RELIABILITY.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "harness/experiment.h"
#include "io/checkpoint_io.h"
#include "io/tensor_io.h"
#include "serve/session_manager.h"
#include "stream/message.h"

namespace nerglob {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// Re-arm/disarm around each test so a failing assertion can't leak an
// armed injector into the rest of the process.
class ArmedInjector {
 public:
  explicit ArmedInjector(const std::string& spec) {
    Status s = fault::FaultInjector::Global().ArmFromSpec(spec);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  ~ArmedInjector() { fault::FaultInjector::Global().Disarm(); }
};

// ---------------------------------------------------------------------------
// Spec grammar

TEST(FaultSpec, ParsesEveryDirectiveForm) {
  auto& injector = fault::FaultInjector::Global();
  EXPECT_TRUE(injector.ArmFromSpec("ckpt.rename:1").ok());
  EXPECT_TRUE(injector.ArmFromSpec("io.write:3+,io.read:1").ok());
  EXPECT_TRUE(injector.ArmFromSpec("io.write:p=0.25,seed=7").ok());
  EXPECT_TRUE(injector.ArmFromSpec(" io.open_read:2 , seed=9 ").ok());
  EXPECT_TRUE(injector.ArmFromSpec("").ok());
  EXPECT_FALSE(injector.armed());
  injector.Disarm();
}

TEST(FaultSpec, RejectsMalformedClauses) {
  auto& injector = fault::FaultInjector::Global();
  const char* bad[] = {
      "bogus.site:1",     // unregistered site must fail loudly
      "io.write",         // missing directive
      "io.write:",        // empty directive
      "io.write:0",       // hit counts are 1-based
      "io.write:p=1.5",   // probability out of range
      "io.write:p=x",     // not a number
      "seed=abc",         // bad seed
      ":3",               // missing site
  };
  for (const char* spec : bad) {
    Status s = injector.ArmFromSpec(spec);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << spec;
  }
  injector.Disarm();
}

TEST(FaultSpec, NthFiresExactlyOnceAndPersistentForever) {
  auto& injector = fault::FaultInjector::Global();
  {
    ArmedInjector armed("io.write:2");
    EXPECT_FALSE(fault::InjectFault(fault::kSiteIoWrite));
    EXPECT_TRUE(fault::InjectFault(fault::kSiteIoWrite));
    EXPECT_FALSE(fault::InjectFault(fault::kSiteIoWrite));
    EXPECT_EQ(injector.HitCount(fault::kSiteIoWrite), 3u);
    EXPECT_EQ(injector.InjectedCount(fault::kSiteIoWrite), 1u);
    // An armed injector only fires at the sites its clauses name.
    EXPECT_FALSE(fault::InjectFault(fault::kSiteIoRead));
  }
  {
    ArmedInjector armed("io.write:2+");
    EXPECT_FALSE(fault::InjectFault(fault::kSiteIoWrite));
    for (int i = 0; i < 5; ++i) {
      EXPECT_TRUE(fault::InjectFault(fault::kSiteIoWrite));
    }
    EXPECT_EQ(injector.InjectedCount(fault::kSiteIoWrite), 5u);
  }
  EXPECT_FALSE(injector.armed());
  EXPECT_FALSE(fault::InjectFault(fault::kSiteIoWrite));
}

TEST(FaultSpec, ProbabilisticModeIsSeedDeterministic) {
  auto& injector = fault::FaultInjector::Global();
  auto draw = [&](const std::string& spec) {
    ArmedInjector armed(spec);
    std::vector<bool> outcomes;
    for (int i = 0; i < 256; ++i) {
      outcomes.push_back(fault::InjectFault(fault::kSiteIoWrite));
    }
    return outcomes;
  };
  const auto a = draw("io.write:p=0.3,seed=42");
  const auto b = draw("io.write:p=0.3,seed=42");
  EXPECT_EQ(a, b);  // same seed => bit-identical fault pattern
  size_t fired = 0;
  for (const bool f : a) fired += f ? 1 : 0;
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, a.size());
  injector.Disarm();
}

TEST(FaultSpec, EveryRegisteredSiteFires) {
  // The catalog contract: each site name in kAllSites parses and fires.
  // The CI chaos lane relies on this to guarantee matrix coverage.
  auto& injector = fault::FaultInjector::Global();
  for (const char* site : fault::kAllSites) {
    ArmedInjector armed(std::string(site) + ":1");
    EXPECT_TRUE(fault::InjectFault(site)) << site;
    EXPECT_EQ(injector.InjectedCount(site), 1u) << site;
  }
}

// ---------------------------------------------------------------------------
// RetryPolicy

TEST(RetryPolicy, AbsorbsTransientFailures) {
  io::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_seconds = 0;
  int calls = 0;
  Status s = policy.Run("test", [&]() -> Status {
    return ++calls < 3 ? Status::IoError("flaky") : Status::OK();
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(calls, 3);
}

TEST(RetryPolicy, DoesNotRetryNonTransientErrors) {
  io::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.backoff_seconds = 0;
  int calls = 0;
  Status s = policy.Run("test", [&]() -> Status {
    ++calls;
    return Status::InvalidArgument("deterministic");
  });
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);
}

TEST(RetryPolicy, ExhaustionKeepsTheLastErrorCode) {
  io::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.backoff_seconds = 0;
  int calls = 0;
  Status s = policy.Run("doomed-op", [&]() -> Status {
    ++calls;
    return Status::Unavailable("still down");
  });
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_NE(s.ToString().find("doomed-op"), std::string::npos);
  EXPECT_NE(s.ToString().find("4 attempts"), std::string::npos);
}

// ---------------------------------------------------------------------------
// WriteFileAtomically

Status WriteMarkerFile(const std::string& path, uint64_t value,
                       const io::RetryPolicy& retry) {
  return io::WriteFileAtomically(
      path,
      [value](io::TensorWriter* w) {
        w->PutU64(value);
        return w->EndRecord(io::kTagBlob);
      },
      retry);
}

uint64_t ReadMarkerFile(const std::string& path) {
  io::TensorReader reader(path);
  EXPECT_TRUE(reader.NextRecord(io::kTagBlob).ok()) << reader.status().ToString();
  uint64_t value = 0;
  EXPECT_TRUE(reader.GetU64(&value));
  return value;
}

TEST(AtomicWrite, SingleShotFaultAtEachIoSiteIsAbsorbed) {
  io::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.backoff_seconds = 0;
  const char* sites[] = {fault::kSiteIoOpenWrite, fault::kSiteIoWrite,
                         fault::kSiteCkptRename};
  for (const char* site : sites) {
    const std::string path = TempPath(std::string("atomic_") + site + ".ngb");
    fs::remove(path);
    ASSERT_TRUE(WriteMarkerFile(path, 1, retry).ok()) << site;
    auto& injector = fault::FaultInjector::Global();
    {
      ArmedInjector armed(std::string(site) + ":1");
      Status s = WriteMarkerFile(path, 2, retry);
      EXPECT_TRUE(s.ok()) << site << ": " << s.ToString();
      EXPECT_EQ(injector.InjectedCount(site), 1u) << site;
    }
    EXPECT_EQ(ReadMarkerFile(path), 2u) << site;
    EXPECT_FALSE(fs::exists(path + ".tmp")) << site;
    fs::remove(path);
  }
}

TEST(AtomicWrite, PersistentFaultLeavesOldBytesIntact) {
  io::RetryPolicy retry;
  retry.max_attempts = 2;
  retry.backoff_seconds = 0;
  const std::string path = TempPath("atomic_persistent.ngb");
  fs::remove(path);
  ASSERT_TRUE(WriteMarkerFile(path, 7, retry).ok());
  {
    ArmedInjector armed("ckpt.rename:1+");
    Status s = WriteMarkerFile(path, 8, retry);
    EXPECT_EQ(s.code(), StatusCode::kIoError);
  }
  // The failed write never touched the committed bytes, and cleaned up
  // its temp file.
  EXPECT_EQ(ReadMarkerFile(path), 7u);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  fs::remove(path);
}

TEST(AtomicWrite, RawTensorIoIsUnaffectedWhileArmed) {
  // Only robustness-layer writers/readers opt into injection; a plain
  // TensorWriter/TensorReader must keep working under any armed spec, so
  // the CI chaos matrix can run whole suites without perturbing
  // unrelated file IO.
  ArmedInjector armed(
      "io.open_write:1+,io.write:1+,io.open_read:1+,io.read:1+");
  const std::string path = TempPath("raw_io_under_faults.ngb");
  io::TensorWriter writer(path);
  writer.PutU64(99);
  ASSERT_TRUE(writer.EndRecord(io::kTagBlob).ok());
  ASSERT_TRUE(writer.Finish().ok());
  io::TensorReader reader(path);
  ASSERT_TRUE(reader.NextRecord(io::kTagBlob).ok());
  uint64_t value = 0;
  ASSERT_TRUE(reader.GetU64(&value));
  EXPECT_EQ(value, 99u);
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// Generation helpers

TEST(Generations, NamingRoundTripsAndTmpIsNeverCommitted) {
  EXPECT_EQ(io::GenerationDirName(1), "gen-00000001");
  EXPECT_EQ(io::GenerationDirName(12345678), "gen-12345678");
  uint64_t g = 0;
  EXPECT_TRUE(io::ParseGenerationDirName("gen-00000042", &g));
  EXPECT_EQ(g, 42u);
  EXPECT_FALSE(io::ParseGenerationDirName("gen-00000042.tmp", &g));
  EXPECT_FALSE(io::ParseGenerationDirName("gen-", &g));
  EXPECT_FALSE(io::ParseGenerationDirName("generation-1", &g));

  const std::string root = TempPath("gen_scan");
  fs::remove_all(root);
  fs::create_directories(root + "/gen-00000001");
  fs::create_directories(root + "/gen-00000003");
  fs::create_directories(root + "/gen-00000005.tmp");  // crash debris
  fs::create_directories(root + "/unrelated");
  EXPECT_EQ(io::ListGenerations(root), (std::vector<uint64_t>{1, 3}));
  // An abandoned staging dir still reserves its number: the next writer
  // must not reuse gen-5 for different logical state.
  EXPECT_EQ(io::NextGeneration(root), 6u);
  fs::remove_all(root);
  EXPECT_TRUE(io::ListGenerations(root).empty());
  EXPECT_EQ(io::NextGeneration(root), 1u);
}

// ---------------------------------------------------------------------------
// Fleet-level crash safety (trained system; mirrors serve_test's fixture)

class FaultInjectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    system_ = new harness::TrainedSystem(
        harness::BuildTrainedSystem(harness::TinyTestOptions()));
  }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }
  void TearDown() override { fault::FaultInjector::Global().Disarm(); }

  static serve::SessionManagerConfig ManagerConfig(size_t num_shards,
                                                   size_t window) {
    serve::SessionManagerConfig config;
    config.num_shards = num_shards;
    config.pipeline = core::DefaultPipelineConfig(system_->bundle);
    config.pipeline.window_messages = window;
    return config;
  }

  static std::vector<std::vector<stream::Message>> Batches(
      const std::string& dataset, size_t batch_size) {
    data::StreamGenerator gen(&system_->kb_eval);
    stream::StreamSource source(
        gen.Generate(data::MakeDatasetSpec(dataset, 0.08)), batch_size);
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

  static void ExpectBitIdentical(
      const std::vector<core::FinalizedMessage>& got,
      const std::vector<core::FinalizedMessage>& want, const char* label) {
    ASSERT_EQ(got.size(), want.size()) << label;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE(got[i] == want[i]) << label << " message " << i;
    }
  }

  static harness::TrainedSystem* system_;
};

harness::TrainedSystem* FaultInjectionTest::system_ = nullptr;

TEST_F(FaultInjectionTest, CheckpointAllAbsorbsAnySingleFaultBitIdentically) {
  // The acceptance criterion: with NERGLOB_FAULT firing once at any
  // registered io/ckpt site during CheckpointAll, the checkpoint still
  // commits, and a fleet restored from it finishes the stream
  // bit-identical to an uninterrupted replay.
  const auto batches = Batches("D2", 8);
  const size_t window = 16;
  const size_t half = batches.size() / 2;
  const auto want = SequentialReplay(batches, window);

  serve::SessionManager first(&system_->bundle, ManagerConfig(2, window));
  ASSERT_TRUE(first.Open("s0").ok());
  for (size_t b = 0; b < half; ++b) {
    ASSERT_TRUE(first.Submit("s0", batches[b]).ok());
  }
  first.Drain();

  const char* sites[] = {fault::kSiteIoOpenWrite, fault::kSiteIoWrite,
                         fault::kSiteCkptRename,
                         fault::kSiteCkptManifestCommit};
  auto& injector = fault::FaultInjector::Global();
  for (const char* site : sites) {
    const std::string dir = TempPath(std::string("fleet_") + site);
    fs::remove_all(dir);
    {
      ArmedInjector armed(std::string(site) + ":1");
      Status s = first.CheckpointAll(dir);
      ASSERT_TRUE(s.ok()) << site << ": " << s.ToString();
      EXPECT_GE(injector.InjectedCount(site), 1u) << site;
    }
    // No staging debris survives a successful commit.
    EXPECT_EQ(io::ListGenerations(dir), std::vector<uint64_t>{1}) << site;
    EXPECT_FALSE(fs::exists(dir + "/gen-00000001.tmp")) << site;

    serve::SessionManager second(&system_->bundle, ManagerConfig(2, window));
    uint64_t generation = 0;
    ASSERT_TRUE(second.RecoverLatest(dir, &generation).ok()) << site;
    EXPECT_EQ(generation, 1u) << site;
    for (size_t b = half; b < batches.size(); ++b) {
      ASSERT_TRUE(second.Submit("s0", batches[b]).ok()) << site;
    }
    second.FlushAll();
    auto got = second.TakeFinalized("s0");
    ASSERT_TRUE(got.ok()) << site << ": " << got.status().ToString();
    ExpectBitIdentical(*got, want, site);
    fs::remove_all(dir);
  }
}

TEST_F(FaultInjectionTest, PersistentCommitFaultFallsBackOneGeneration) {
  // Crash between temp write and rename: generation 2's commit never
  // happens, so RecoverLatest must restore generation 1 — and the fleet
  // continued from there is bit-identical to a replay from that point.
  const auto batches = Batches("D2", 8);
  const size_t window = 16;
  const size_t third = batches.size() / 3;
  const auto want = SequentialReplay(batches, window);

  const char* commit_sites[] = {fault::kSiteCkptRename,
                                fault::kSiteCkptManifestCommit};
  for (const char* site : commit_sites) {
    const std::string dir = TempPath(std::string("fallback_") + site);
    fs::remove_all(dir);

    serve::SessionManager first(&system_->bundle, ManagerConfig(2, window));
    ASSERT_TRUE(first.Open("s0").ok());
    for (size_t b = 0; b < third; ++b) {
      ASSERT_TRUE(first.Submit("s0", batches[b]).ok());
    }
    ASSERT_TRUE(first.CheckpointAll(dir).ok()) << site;  // generation 1
    for (size_t b = third; b < 2 * third; ++b) {
      ASSERT_TRUE(first.Submit("s0", batches[b]).ok());
    }
    {
      // Persistent fault: every retry fails too, so generation 2 is
      // abandoned as .tmp debris (the "crash" in slow motion).
      ArmedInjector armed(std::string(site) + ":1+");
      Status s = first.CheckpointAll(dir);
      EXPECT_EQ(s.code(), StatusCode::kIoError) << site;
    }
    EXPECT_EQ(io::ListGenerations(dir), std::vector<uint64_t>{1}) << site;

    serve::SessionManager second(&system_->bundle, ManagerConfig(2, window));
    uint64_t generation = 0;
    ASSERT_TRUE(second.RecoverLatest(dir, &generation).ok()) << site;
    EXPECT_EQ(generation, 1u) << site;
    // Replay resumes from the *first* checkpoint's position.
    for (size_t b = third; b < batches.size(); ++b) {
      ASSERT_TRUE(second.Submit("s0", batches[b]).ok()) << site;
    }
    second.FlushAll();
    auto got = second.TakeFinalized("s0");
    ASSERT_TRUE(got.ok()) << site;
    ExpectBitIdentical(*got, want, site);
    fs::remove_all(dir);
  }
}

// Flips one payload byte inside the file so the record checksum fails.
void FlipByte(const std::string& path, std::streamoff offset_from_end) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(-offset_from_end, std::ios::end);
  char byte = 0;
  f.read(&byte, 1);
  byte ^= 0x40;
  f.seekp(-offset_from_end, std::ios::end);
  f.write(&byte, 1);
}

// Truncates the file to its header plus zero complete records — the torn
// state a crash between record N and N+1 leaves behind.
void TruncateAfterHeader(const std::string& path) {
  fs::resize_file(path, sizeof(io::kMagic) + 2 * sizeof(uint32_t));
}

// Replaces the file with the start of a session checkpoint in an older
// layout: a session record in that layout, then a pipeline header that
// opens with `layout`. Layouts 2 and 3 wrote the session record at fixed
// width with no layout field (layout 2 also stored encoder outputs, layout
// 3 every token); layout 4 opened it with its layout version and stored
// the trie and pipeline bookkeeping this build derives from the window,
// layout 5 stored each mention pool's cluster partition, layout 6
// stored a hand-built token's spelling and lowercase form, and layout 7
// stored the mention pools. This build refuses all six before misparsing
// a field.
void WriteOldLayoutSession(const std::string& path,
                           const std::string& fingerprint, uint32_t layout) {
  io::TensorWriter writer(path);
  if (layout >= 4) {
    writer.PutU32(layout);
    for (const uint64_t field : {1, 8, 0, 0}) {  // batches .. finalized
      writer.PutVarint(field);
    }
  } else {
    writer.PutU64(1);  // batches
    writer.PutU64(8);  // messages
    writer.PutU32(0);  // flushed
    writer.PutU64(0);  // finalized count
  }
  ASSERT_TRUE(writer.EndRecord(io::kTagSession).ok());
  writer.PutU32(layout);
  writer.PutString(fingerprint);
  ASSERT_TRUE(writer.EndRecord(io::kTagCheckpoint).ok());
  ASSERT_TRUE(writer.Finish().ok());
}

TEST_F(FaultInjectionTest, RecoverLatestSkipsEveryKindOfTornGeneration) {
  const auto batches = Batches("D1", 8);
  const size_t window = 16;
  const size_t half = batches.size() / 2;
  const auto want = SequentialReplay(batches, window);

  enum class Corruption {
    kBitFlipManifest,
    kTruncateSession,
    kDeleteSession,
    kLayoutTwoSession,
    kLayoutThreeSession,
    kLayoutFourSession,
    kLayoutFiveSession,
    kLayoutSixSession,
    kLayoutSevenSession
  };
  for (const Corruption corruption :
       {Corruption::kBitFlipManifest, Corruption::kTruncateSession,
        Corruption::kDeleteSession, Corruption::kLayoutTwoSession,
        Corruption::kLayoutThreeSession, Corruption::kLayoutFourSession,
        Corruption::kLayoutFiveSession, Corruption::kLayoutSixSession,
        Corruption::kLayoutSevenSession}) {
    const std::string dir = TempPath(
        "torn_" + std::to_string(static_cast<int>(corruption)));
    fs::remove_all(dir);

    serve::SessionManager first(&system_->bundle, ManagerConfig(2, window));
    ASSERT_TRUE(first.Open("s0").ok());
    for (size_t b = 0; b < half; ++b) {
      ASSERT_TRUE(first.Submit("s0", batches[b]).ok());
    }
    ASSERT_TRUE(first.CheckpointAll(dir).ok());  // generation 1 (good)
    for (size_t b = half; b < half + 2 && b < batches.size(); ++b) {
      ASSERT_TRUE(first.Submit("s0", batches[b]).ok());
    }
    ASSERT_TRUE(first.CheckpointAll(dir).ok());  // generation 2 (to corrupt)

    const std::string gen2 = dir + "/" + io::GenerationDirName(2);
    switch (corruption) {
      case Corruption::kBitFlipManifest:
        FlipByte(gen2 + "/manifest.ngm", 12);
        break;
      case Corruption::kTruncateSession:
        TruncateAfterHeader(gen2 + "/session_0.ckpt");
        break;
      case Corruption::kDeleteSession:
        fs::remove(gen2 + "/session_0.ckpt");
        break;
      case Corruption::kLayoutTwoSession:
        WriteOldLayoutSession(gen2 + "/session_0.ckpt",
                              system_->bundle.Fingerprint(), 2);
        break;
      case Corruption::kLayoutThreeSession:
        WriteOldLayoutSession(gen2 + "/session_0.ckpt",
                              system_->bundle.Fingerprint(), 3);
        break;
      case Corruption::kLayoutFourSession:
        WriteOldLayoutSession(gen2 + "/session_0.ckpt",
                              system_->bundle.Fingerprint(), 4);
        break;
      case Corruption::kLayoutFiveSession:
        WriteOldLayoutSession(gen2 + "/session_0.ckpt",
                              system_->bundle.Fingerprint(), 5);
        break;
      case Corruption::kLayoutSixSession:
        WriteOldLayoutSession(gen2 + "/session_0.ckpt",
                              system_->bundle.Fingerprint(), 6);
        break;
      case Corruption::kLayoutSevenSession:
        WriteOldLayoutSession(gen2 + "/session_0.ckpt",
                              system_->bundle.Fingerprint(), 7);
        break;
    }

    // Strict restore refuses the corrupt newest generation outright...
    serve::SessionManager strict(&system_->bundle, ManagerConfig(2, window));
    const Status strict_status = strict.RestoreAll(dir);
    EXPECT_FALSE(strict_status.ok());
    if (corruption == Corruption::kLayoutTwoSession ||
        corruption == Corruption::kLayoutThreeSession ||
        corruption == Corruption::kLayoutFourSession ||
        corruption == Corruption::kLayoutFiveSession ||
        corruption == Corruption::kLayoutSixSession ||
        corruption == Corruption::kLayoutSevenSession) {
      EXPECT_EQ(strict_status.code(), StatusCode::kFailedPrecondition)
          << strict_status.ToString();
      EXPECT_NE(strict_status.message().find("layout version"),
                std::string::npos)
          << strict_status.ToString();
    }
    EXPECT_TRUE(strict.SessionIds().empty());

    // ...while RecoverLatest falls back to generation 1, bit-identically.
    serve::SessionManager second(&system_->bundle, ManagerConfig(2, window));
    uint64_t generation = 0;
    ASSERT_TRUE(second.RecoverLatest(dir, &generation).ok());
    EXPECT_EQ(generation, 1u);
    for (size_t b = half; b < batches.size(); ++b) {
      ASSERT_TRUE(second.Submit("s0", batches[b]).ok());
    }
    second.FlushAll();
    auto got = second.TakeFinalized("s0");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectBitIdentical(*got, want, "fallback");
    fs::remove_all(dir);
  }
}

TEST_F(FaultInjectionTest, RecoverLatestTypedFailures) {
  const std::string dir = TempPath("recover_edge_cases");
  fs::remove_all(dir);
  serve::SessionManager manager(&system_->bundle, ManagerConfig(2, 16));

  // Empty / missing root: nothing to recover.
  EXPECT_EQ(manager.RecoverLatest(dir).code(), StatusCode::kNotFound);

  // A manifest directly under the root, with no gen-* directory, is not a
  // checkpoint: only generation directories are ever restored.
  {
    serve::SessionManager flat(&system_->bundle, ManagerConfig(2, 16));
    ASSERT_TRUE(flat.Open("s0").ok());
    ASSERT_TRUE(flat.CheckpointAll(dir).ok());
    const std::string gen1 = dir + "/" + io::GenerationDirName(1);
    for (const auto& entry : fs::directory_iterator(gen1)) {
      fs::rename(entry.path(), dir + "/" + entry.path().filename().string());
    }
    fs::remove(gen1);
    ASSERT_TRUE(fs::exists(dir + "/manifest.ngm"));
  }
  EXPECT_EQ(manager.RecoverLatest(dir).code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.RestoreAll(dir).code(), StatusCode::kNotFound);
  EXPECT_TRUE(manager.SessionIds().empty());
  fs::remove_all(dir);

  // Generations exist but every one is corrupt: DataLoss, no sessions.
  ASSERT_TRUE(manager.Open("s0").ok());
  ASSERT_TRUE(manager.CheckpointAll(dir).ok());
  ASSERT_TRUE(manager.Close("s0").ok());
  FlipByte(dir + "/" + io::GenerationDirName(1) + "/manifest.ngm", 12);
  serve::SessionManager fresh(&system_->bundle, ManagerConfig(2, 16));
  EXPECT_EQ(fresh.RecoverLatest(dir).code(), StatusCode::kDataLoss);
  EXPECT_TRUE(fresh.SessionIds().empty());
  fs::remove_all(dir);

  // Id collision aborts immediately (no silent fallback past user error).
  serve::SessionManager donor(&system_->bundle, ManagerConfig(2, 16));
  ASSERT_TRUE(donor.Open("s0").ok());
  ASSERT_TRUE(donor.CheckpointAll(dir).ok());
  serve::SessionManager clasher(&system_->bundle, ManagerConfig(2, 16));
  ASSERT_TRUE(clasher.Open("s0").ok());
  EXPECT_EQ(clasher.RecoverLatest(dir).code(), StatusCode::kAlreadyExists);
  fs::remove_all(dir);
}

TEST_F(FaultInjectionTest, CheckpointRetainPrunesOldGenerations) {
  const std::string dir = TempPath("retain_prune");
  fs::remove_all(dir);
  auto config = ManagerConfig(2, 16);
  config.checkpoint_retain = 2;
  serve::SessionManager manager(&system_->bundle, config);
  ASSERT_TRUE(manager.Open("s0").ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(manager.CheckpointAll(dir).ok());
  }
  EXPECT_EQ(io::ListGenerations(dir), (std::vector<uint64_t>{4, 5}));
  fs::remove_all(dir);
}

TEST_F(FaultInjectionTest, QuarantineIsolatesThePoisonedSessionOnly) {
  // serve.process poisons exactly one session; its co-tenant on the same
  // manager keeps streaming bit-identically, and the poisoned one fails
  // fast with DataLoss instead of taking down the fleet.
  const auto batches = Batches("D1", 8);
  const size_t window = 16;
  const auto want = SequentialReplay(batches, window);

  serve::SessionManager manager(&system_->bundle, ManagerConfig(2, window));
  ASSERT_TRUE(manager.Open("poisoned").ok());
  ASSERT_TRUE(manager.Open("healthy").ok());
  {
    ArmedInjector armed("serve.process:1");
    ASSERT_TRUE(manager.Submit("poisoned", batches[0]).ok());
    manager.Drain();
  }
  EXPECT_EQ(manager.stats().quarantined_sessions, 1u);

  // Every data-plane call on the poisoned session is a typed DataLoss.
  EXPECT_EQ(manager.Submit("poisoned", batches[1]).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(manager.Flush("poisoned").code(), StatusCode::kDataLoss);
  EXPECT_EQ(manager.TakeFinalized("poisoned").status().code(),
            StatusCode::kDataLoss);

  // The healthy co-tenant is untouched by its neighbor's failure.
  for (const auto& batch : batches) {
    ASSERT_TRUE(manager.Submit("healthy", batch).ok());
  }
  ASSERT_TRUE(manager.Flush("healthy").ok());
  auto got = manager.TakeFinalized("healthy");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectBitIdentical(*got, want, "healthy co-tenant");

  // CheckpointAll skips the quarantined session instead of persisting
  // untrusted state.
  const std::string dir = TempPath("quarantine_ckpt");
  fs::remove_all(dir);
  ASSERT_TRUE(manager.CheckpointAll(dir).ok());
  serve::SessionManager restored(&system_->bundle, ManagerConfig(2, window));
  ASSERT_TRUE(restored.RestoreAll(dir).ok());
  EXPECT_EQ(restored.SessionIds(), std::vector<std::string>{"healthy"});
  fs::remove_all(dir);

  // Close releases the quarantined session and clears the stat.
  ASSERT_TRUE(manager.Close("poisoned").ok());
  EXPECT_EQ(manager.stats().quarantined_sessions, 0u);
  EXPECT_EQ(manager.stats().open_sessions, 1u);
}

TEST_F(FaultInjectionTest, EnqueueFaultIsTransientUnavailable) {
  const auto batches = Batches("D1", 8);
  serve::SessionManager manager(&system_->bundle, ManagerConfig(2, 16));
  ASSERT_TRUE(manager.Open("s0").ok());
  const uint64_t rejected_before = manager.stats().rejected_batches;
  {
    ArmedInjector armed("serve.enqueue:1");
    EXPECT_EQ(manager.Submit("s0", batches[0]).code(),
              StatusCode::kUnavailable);
  }
  EXPECT_EQ(manager.stats().rejected_batches, rejected_before + 1);
  // The documented client response to Unavailable — retry — succeeds.
  EXPECT_TRUE(manager.Submit("s0", batches[0]).ok());
  manager.Drain();
  EXPECT_EQ(manager.stats().processed_batches, 1u);
}

}  // namespace
}  // namespace nerglob
