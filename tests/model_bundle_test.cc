// Tests for the model/session split: the immutable ModelBundle artifact
// (save → load in a "fresh process" → bit-identical predictions), its
// corruption handling, and concurrent StreamingSessions sharing one const
// bundle — the train-once / serve-many contract.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "artifact_records.h"
#include "common/rng.h"
#include "core/model_bundle.h"
#include "core/ner_globalizer.h"
#include "data/generator.h"
#include "harness/experiment.h"
#include "io/tensor_io.h"
#include "stream/streaming_session.h"

namespace nerglob {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// One small trained system shared by every test in this file (training is
// the expensive part).
class ModelBundleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    system_ = new harness::TrainedSystem(
        harness::BuildTrainedSystem(harness::TinyTestOptions()));
  }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }

  std::vector<stream::Message> Dataset(const std::string& name) const {
    data::StreamGenerator gen(&system_->kb_eval);
    return gen.Generate(data::MakeDatasetSpec(name, 0.08));
  }

  static harness::TrainedSystem* system_;
};

harness::TrainedSystem* ModelBundleTest::system_ = nullptr;

constexpr core::PipelineStage kAllStages[] = {
    core::PipelineStage::kLocalOnly, core::PipelineStage::kMentionExtraction,
    core::PipelineStage::kLocalEmbeddings, core::PipelineStage::kFullGlobal};

TEST_F(ModelBundleTest, SaveLoadPreservesPredictionsAtEveryStage) {
  const std::string path = TempPath("bundle_roundtrip.ngb");
  ASSERT_TRUE(system_->bundle.Save(path).ok());
  Result<core::ModelBundle> loaded = core::ModelBundle::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->Fingerprint(), system_->bundle.Fingerprint());

  const auto messages = Dataset("D1");
  core::NerGlobalizer original(&system_->bundle,
                               core::DefaultPipelineConfig(system_->bundle));
  core::NerGlobalizer reloaded(&loaded.value(),
                               core::DefaultPipelineConfig(loaded.value()));
  original.ProcessAll(messages, /*batch_size=*/40);
  reloaded.ProcessAll(messages, /*batch_size=*/40);
  for (core::PipelineStage stage : kAllStages) {
    auto a = original.Predictions(stage);
    auto b = reloaded.Predictions(stage);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "stage " << core::PipelineStageName(stage)
                            << ", message " << i;
    }
  }
  std::remove(path.c_str());
}

TEST_F(ModelBundleTest, TrainingStatsSurviveRoundTrip) {
  const std::string path = TempPath("bundle_stats.ngb");
  system_->bundle.set_training_stats(harness::StatsFromSystem(*system_));
  ASSERT_TRUE(system_->bundle.Save(path).ok());
  Result<core::ModelBundle> loaded = core::ModelBundle::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->training_stats(), system_->bundle.training_stats());
  std::remove(path.c_str());
}

TEST_F(ModelBundleTest, MissingFileIsCleanError) {
  Result<core::ModelBundle> loaded =
      core::ModelBundle::Load("/nonexistent/dir/model.ngb");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(ModelBundleTest, GarbageFileIsCleanError) {
  const std::string path = TempPath("bundle_garbage.ngb");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is definitely not a model bundle";
  }
  Result<core::ModelBundle> loaded = core::ModelBundle::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST_F(ModelBundleTest, EveryTruncationIsCleanError) {
  const std::string path = TempPath("bundle_truncated.ngb");
  ASSERT_TRUE(system_->bundle.Save(path).ok());
  std::string full;
  {
    std::ifstream in(path, std::ios::binary);
    full.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Sampled truncation sweep (the file is a few hundred KB; byte-by-byte
  // would dominate test time). Every cut must produce a Status, not a
  // crash or a partially-initialized bundle.
  for (size_t len = 0; len < full.size();
       len += 1 + full.size() / 257) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(len));
    out.close();
    Result<core::ModelBundle> loaded = core::ModelBundle::Load(path);
    EXPECT_FALSE(loaded.ok()) << "truncation to " << len << " not caught";
  }
  std::remove(path.c_str());
}

TEST_F(ModelBundleTest, WrongFormatVersionIsCleanError) {
  const std::string path = TempPath("bundle_version.ngb");
  {
    io::TensorWriter writer(path, /*format_version=*/99);
    ASSERT_TRUE(system_->bundle.Save(&writer).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  Result<core::ModelBundle> loaded = core::ModelBundle::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

/// Writes a bundle-config record with `config`'s fields in Save's order and
/// `fingerprint`, and nothing after it.
void WriteConfigOnly(const std::string& path,
                     const core::ModelBundleConfig& config,
                     const std::string& fingerprint) {
  io::TensorWriter writer(path);
  writer.PutU32(1);  // bundle layout version
  writer.PutU64(config.lm.d_model);
  writer.PutU64(config.lm.num_heads);
  writer.PutU64(config.lm.num_layers);
  writer.PutU64(config.lm.ff_mult);
  writer.PutU64(config.lm.max_seq_len);
  writer.PutU64(config.lm.subword_buckets);
  writer.PutF32(config.lm.dropout);
  writer.PutI64(config.lm.num_labels);
  writer.PutU64(config.classifier_hidden);
  writer.PutU32(static_cast<uint32_t>(config.pooling));
  writer.PutU32(config.normalize_embedder ? 1 : 0);
  writer.PutF32(config.cluster_threshold);
  writer.PutU64(config.seed);
  writer.PutString(fingerprint);
  ASSERT_TRUE(writer.EndRecord(io::kTagBundleConfig).ok());
  ASSERT_TRUE(writer.Finish().ok());
}

TEST_F(ModelBundleTest, OversizedConfigIsTypedErrorBeforeAllocating) {
  // Every field is within the loader's per-field limits, but the 2^20 x
  // 65536 subword table alone would take 256 GiB. A ~150-byte file must
  // be refused from its config record, before anything is allocated.
  core::ModelBundleConfig config;
  config.lm.d_model = 65536;
  config.lm.subword_buckets = 1u << 20;
  config.lm.num_layers = 1;
  const std::string path = TempPath("bundle_oversized.ngb");

  WriteConfigOnly(path, config, "0123456789abcdef");
  Result<core::ModelBundle> loaded = core::ModelBundle::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("fingerprint mismatch"),
            std::string::npos)
      << loaded.status().ToString();

  WriteConfigOnly(path, config, core::ModelBundle::FingerprintOf(config));
  EXPECT_LE(test_util::ReadBytes(path).size(), 160u);
  loaded = core::ModelBundle::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("parameter bytes"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

// --- Untrained bundles: shape-only construction, round trip, fuzz -------

/// Small configs covering both pooling modes, normalize on and off, and 1
/// and 2 encoder layers.
std::vector<core::ModelBundleConfig> SmallConfigs() {
  std::vector<core::ModelBundleConfig> configs;
  for (const core::PoolingMode pooling :
       {core::PoolingMode::kAttention, core::PoolingMode::kMean}) {
    for (const bool normalize : {true, false}) {
      for (const size_t layers : {1, 2}) {
        core::ModelBundleConfig c;
        c.lm.d_model = 16;
        c.lm.num_heads = 2;
        c.lm.num_layers = layers;
        c.lm.max_seq_len = 12;
        c.lm.subword_buckets = 128;
        c.classifier_hidden = 8;
        c.pooling = pooling;
        c.normalize_embedder = normalize;
        c.seed = 11 + configs.size();
        configs.push_back(c);
      }
    }
  }
  return configs;
}

void ExpectSameShapes(const nn::Module& want, const nn::Module& got,
                      const char* module) {
  const std::vector<ag::Var> a = want.Parameters();
  const std::vector<ag::Var> b = got.Parameters();
  ASSERT_EQ(a.size(), b.size()) << module;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].rows(), b[i].rows()) << module << " parameter " << i;
    EXPECT_EQ(a[i].cols(), b[i].cols()) << module << " parameter " << i;
  }
}

void ExpectSameBits(const nn::Module& want, const nn::Module& got,
                    const char* module) {
  const std::vector<ag::Var> a = want.Parameters();
  const std::vector<ag::Var> b = got.Parameters();
  ASSERT_EQ(a.size(), b.size()) << module;
  for (size_t i = 0; i < a.size(); ++i) {
    const Matrix& x = a[i].value();
    const Matrix& y = b[i].value();
    ASSERT_EQ(x.size(), y.size()) << module << " parameter " << i;
    EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size() * sizeof(float)), 0)
        << module << " parameter " << i;
  }
}

TEST(UntrainedBundleTest, ShapeOnlyConstructionMatchesSeededShapes) {
  for (const core::ModelBundleConfig& c : SmallConfigs()) {
    SCOPED_TRACE(core::ModelBundle::FingerprintOf(c));
    const size_t d = c.lm.d_model;
    Rng rng(c.seed);
    ExpectSameShapes(lm::MicroBert(c.lm, c.seed),
                     *lm::MicroBert::ShapeOnly(c.lm, c.seed), "micro_bert");
    ExpectSameShapes(core::PhraseEmbedder(d, &rng, c.normalize_embedder),
                     core::PhraseEmbedder(d, nullptr, c.normalize_embedder),
                     "phrase_embedder");
    ExpectSameShapes(
        core::EntityClassifier(d, c.classifier_hidden, &rng, c.pooling),
        core::EntityClassifier(d, c.classifier_hidden, nullptr, c.pooling),
        "entity_classifier");
  }
}

TEST(UntrainedBundleTest, SaveLoadRoundTripIsBitExact) {
  const std::string path = TempPath("bundle_bits.ngb");
  for (const core::ModelBundleConfig& c : SmallConfigs()) {
    SCOPED_TRACE(core::ModelBundle::FingerprintOf(c));
    const core::ModelBundle bundle(c);
    ASSERT_TRUE(bundle.Save(path).ok());
    Result<core::ModelBundle> loaded = core::ModelBundle::Load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->Fingerprint(), bundle.Fingerprint());
    ExpectSameBits(bundle.model(), loaded->model(), "micro_bert");
    ExpectSameBits(bundle.embedder(), loaded->embedder(), "phrase_embedder");
    ExpectSameBits(bundle.classifier(), loaded->classifier(),
                   "entity_classifier");
  }
  std::remove(path.c_str());
}

TEST(UntrainedBundleTest, MutatedPayloadsLoadToATypedStatus) {
  // Deterministic mutational fuzz of the five `.ngb` records. Each mutated
  // payload is re-framed with a valid checksum, so it reaches the parsers:
  // every one must come back as a Status (OK or a typed error), never a
  // crash. Run under the sanitizer build it also rules out memory errors.
  core::ModelBundleConfig config;
  config.lm.d_model = 8;
  config.lm.num_heads = 2;
  config.lm.num_layers = 1;
  config.lm.max_seq_len = 8;
  config.lm.subword_buckets = 64;
  config.classifier_hidden = 4;
  core::ModelBundle bundle(config);
  bundle.set_training_stats({0.5, 2.0});
  const std::string path = TempPath("bundle_fuzz.ngb");
  ASSERT_TRUE(bundle.Save(path).ok());
  const auto records = test_util::SplitRecords(test_util::ReadBytes(path));
  ASSERT_EQ(records.size(), 5u);

  size_t rejected = 0;
  auto load_mutated = [&](size_t r, const std::string& payload) {
    ASSERT_TRUE(test_util::WriteRecords(path, records, r, payload).ok());
    const Result<core::ModelBundle> loaded = core::ModelBundle::Load(path);
    const Status& st = loaded.status();
    rejected += st.ok() ? 0 : 1;
    EXPECT_TRUE(st.ok() || st.code() == StatusCode::kInvalidArgument ||
                st.code() == StatusCode::kIoError ||
                st.code() == StatusCode::kFailedPrecondition)
        << "record " << r << ": " << st.ToString();
  };
  for (size_t r = 0; r < records.size(); ++r) {
    for (const std::string& mutant : test_util::Mutants(records[r].second)) {
      load_mutated(r, mutant);
    }
  }
  // Every truncation of every record drops a field or a value, so at
  // least those mutants must have reached a parser and been refused.
  size_t truncations = 0;
  for (const auto& record : records) truncations += record.second.size();
  EXPECT_GE(rejected, truncations);
  std::remove(path.c_str());
}

// --- Concurrent sessions over one const bundle -------------------------

class ConcurrentSessions : public ModelBundleTest {};

TEST_F(ConcurrentSessions, SessionsShareOneBundleAndMatchSerialRuns) {
  const core::ModelBundle& bundle = system_->bundle;  // shared, const
  const std::vector<std::string> datasets = {"D1", "D2", "D3"};

  // Serial reference: one session per stream, run back to back.
  std::vector<std::vector<std::vector<text::EntitySpan>>> want;
  for (const auto& name : datasets) {
    stream::StreamingSessionConfig config;
    config.pipeline = core::DefaultPipelineConfig(bundle);
    stream::StreamingSession session(&bundle, config);
    auto messages = Dataset(name);
    stream::StreamSource source(messages, /*batch_size=*/40);
    session.Run(&source);
    want.push_back(session.pipeline().Predictions());
  }

  // Concurrent: same three streams, one thread each, same shared bundle.
  std::vector<std::vector<std::vector<text::EntitySpan>>> got(datasets.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < datasets.size(); ++i) {
    threads.emplace_back([&, i] {
      stream::StreamingSessionConfig config;
      config.pipeline = core::DefaultPipelineConfig(bundle);
      stream::StreamingSession session(&bundle, config);
      auto messages = Dataset(datasets[i]);
      stream::StreamSource source(messages, /*batch_size=*/40);
      session.Run(&source);
      got[i] = session.pipeline().Predictions();
    });
  }
  for (auto& t : threads) t.join();

  for (size_t i = 0; i < datasets.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << datasets[i];
    for (size_t m = 0; m < want[i].size(); ++m) {
      EXPECT_EQ(got[i][m], want[i][m]) << datasets[i] << " message " << m;
    }
  }
}

}  // namespace
}  // namespace nerglob
