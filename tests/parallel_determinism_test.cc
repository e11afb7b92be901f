// Determinism contract of the parallel inference engine: the full pipeline
// must produce bit-identical state and predictions for any NERGLOB_THREADS
// setting AND any NERGLOB_SIMD kernel tier (ISSUE: "deterministic ordered
// result merging" + the kernel determinism contract in DESIGN.md).
// The bundle is random-init (no training) — determinism is a property of
// the execution engine, not of model quality, and untrained weights still
// produce a rich mix of spans, mentions and clusters to compare.
#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/ner_globalizer.h"
#include "data/generator.h"
#include "data/knowledge_base.h"
#include "tensor/kernels.h"

namespace nerglob {
namespace {

struct PipelineResult {
  std::vector<std::vector<text::EntitySpan>> local;
  std::vector<std::vector<text::EntitySpan>> global;
  size_t trie_size = 0;
  size_t total_mentions = 0;
};

bool SpansEqual(const std::vector<std::vector<text::EntitySpan>>& a,
                const std::vector<std::vector<text::EntitySpan>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::ModelBundleConfig config;
    config.lm.d_model = 32;
    config.lm.num_heads = 2;
    config.lm.num_layers = 1;
    config.lm.subword_buckets = 512;
    config.classifier_hidden = 24;
    bundle_ = new core::ModelBundle(config);
    kb_ = new data::KnowledgeBase(
        data::KnowledgeBase::BuildStandard(/*extra_per_topic_type=*/5,
                                           /*seed=*/19));
    data::StreamGenerator gen(kb_);
    messages_ = new std::vector<stream::Message>(
        gen.Generate(data::MakeDatasetSpec("D1", /*scale=*/0.05)));
  }
  static void TearDownTestSuite() {
    delete messages_;
    delete kb_;
    delete bundle_;
    messages_ = nullptr;
    kb_ = nullptr;
    bundle_ = nullptr;
  }
  ~ParallelDeterminismTest() override {
    SetParallelism(0);
    kern::ResetSimdLevel();
  }

  static PipelineResult RunWithThreads(size_t threads, size_t batch_size) {
    SetParallelism(threads);
    core::NerGlobalizerConfig config;
    core::NerGlobalizer pipeline(bundle_, config);
    pipeline.ProcessAll(*messages_, batch_size);
    PipelineResult result;
    result.local = pipeline.Predictions(core::PipelineStage::kLocalOnly);
    result.global = pipeline.Predictions(core::PipelineStage::kFullGlobal);
    result.trie_size = pipeline.trie().size();
    result.total_mentions = pipeline.candidate_base().TotalMentions();
    SetParallelism(0);
    return result;
  }

  static core::ModelBundle* bundle_;
  static data::KnowledgeBase* kb_;
  static std::vector<stream::Message>* messages_;
};

core::ModelBundle* ParallelDeterminismTest::bundle_ = nullptr;
data::KnowledgeBase* ParallelDeterminismTest::kb_ = nullptr;
std::vector<stream::Message>* ParallelDeterminismTest::messages_ = nullptr;

TEST_F(ParallelDeterminismTest, StreamHasEnoughWorkToBeMeaningful) {
  ASSERT_GT(messages_->size(), 20u);
  PipelineResult serial = RunWithThreads(1, 32);
  EXPECT_GT(serial.trie_size, 0u);
  EXPECT_GT(serial.total_mentions, 0u);
}

TEST_F(ParallelDeterminismTest, OneVersusEightThreadsBitIdentical) {
  PipelineResult serial = RunWithThreads(1, 32);
  PipelineResult parallel = RunWithThreads(8, 32);
  EXPECT_EQ(serial.trie_size, parallel.trie_size);
  EXPECT_EQ(serial.total_mentions, parallel.total_mentions);
  EXPECT_TRUE(SpansEqual(serial.local, parallel.local));
  EXPECT_TRUE(SpansEqual(serial.global, parallel.global));
}

TEST_F(ParallelDeterminismTest, ThreadCountStableAcrossBatchSizes) {
  // Batch size changes which sentences share a ParallelFor — the output
  // must stay thread-count independent for each batching.
  for (size_t batch : {8u, 64u}) {
    PipelineResult serial = RunWithThreads(1, batch);
    PipelineResult parallel = RunWithThreads(5, batch);
    EXPECT_TRUE(SpansEqual(serial.global, parallel.global))
        << "batch size " << batch;
  }
}

TEST_F(ParallelDeterminismTest, RepeatedParallelRunsAreStable) {
  PipelineResult first = RunWithThreads(8, 32);
  PipelineResult second = RunWithThreads(8, 32);
  EXPECT_TRUE(SpansEqual(first.global, second.global));
}

TEST_F(ParallelDeterminismTest, SimdTierTimesThreadCountBitIdentical) {
  // The kernel tier is a throughput knob, never a results knob: every
  // (NERGLOB_SIMD, NERGLOB_THREADS) combination must produce the same
  // bits. Skipped (generic-only sweep) where no AVX2 tier exists.
  ASSERT_TRUE(kern::SetSimdLevel(kern::SimdLevel::kGeneric));
  const PipelineResult reference = RunWithThreads(1, 32);
  const bool have_avx2 = kern::BuiltWithAvx2() && kern::CpuSupportsAvx2();
  const std::vector<kern::SimdLevel> tiers =
      have_avx2
          ? std::vector<kern::SimdLevel>{kern::SimdLevel::kGeneric,
                                         kern::SimdLevel::kAvx2}
          : std::vector<kern::SimdLevel>{kern::SimdLevel::kGeneric};
  for (const kern::SimdLevel tier : tiers) {
    ASSERT_TRUE(kern::SetSimdLevel(tier));
    for (const size_t threads : {1u, 6u}) {
      const PipelineResult run = RunWithThreads(threads, 32);
      EXPECT_EQ(reference.trie_size, run.trie_size)
          << kern::SimdLevelName(tier) << " x " << threads;
      EXPECT_EQ(reference.total_mentions, run.total_mentions)
          << kern::SimdLevelName(tier) << " x " << threads;
      EXPECT_TRUE(SpansEqual(reference.local, run.local))
          << kern::SimdLevelName(tier) << " x " << threads;
      EXPECT_TRUE(SpansEqual(reference.global, run.global))
          << kern::SimdLevelName(tier) << " x " << threads;
    }
  }
  kern::ResetSimdLevel();
  if (!have_avx2) {
    GTEST_SKIP() << "AVX2 tier unavailable; sweep covered generic only";
  }
}

}  // namespace
}  // namespace nerglob
