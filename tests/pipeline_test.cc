// Integration tests: a small trained system exercised end-to-end through
// the NerGlobalizer pipeline, including the incremental/continuous
// execution contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <set>

#include "common/metrics.h"
#include "common/string_util.h"
#include "core/local_ner.h"
#include "core/stages.h"
#include "core/stream_state.h"
#include "harness/experiment.h"
#include "io/tensor_io.h"
#include "text/tokenizer.h"

namespace nerglob {
namespace {

// One small trained system shared by every test in this file (training is
// the expensive part; ~10s at scale 0.08).
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    system_ = new harness::TrainedSystem(
        harness::BuildTrainedSystem(harness::TinyTestOptions()));
  }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }

  core::NerGlobalizer MakePipeline(size_t window_messages = 0) const {
    core::NerGlobalizerConfig config = core::DefaultPipelineConfig(system_->bundle);
    config.window_messages = window_messages;
    return core::NerGlobalizer(&system_->bundle, config);
  }

  std::vector<stream::Message> Dataset(const std::string& name,
                                       double scale = 0.08) const {
    data::StreamGenerator gen(&system_->kb_eval);
    return gen.Generate(data::MakeDatasetSpec(name, scale));
  }

  /// Checkpoints `from` and restores it into a fresh pipeline with the
  /// same config.
  core::NerGlobalizer Reload(const core::NerGlobalizer& from) const {
    const std::string path =
        std::string(::testing::TempDir()) + "/pipeline_reload.bin";
    {
      io::TensorWriter writer(path);
      EXPECT_TRUE(from.Checkpoint(&writer).ok());
      EXPECT_TRUE(writer.Finish().ok());
    }
    core::NerGlobalizer to(&system_->bundle, from.config());
    io::TensorReader reader(path);
    const Status s = to.Restore(&reader);
    EXPECT_TRUE(s.ok()) << s.ToString();
    std::remove(path.c_str());
    return to;
  }

  /// Expects equal live windows, tries, mention pools (the same surfaces,
  /// each pool's spans in the same order with bit-identical embeddings)
  /// and Predictions() at every stage.
  static void ExpectSameWindow(core::NerGlobalizer& a, core::NerGlobalizer& b,
                               const std::string& label) {
    ASSERT_EQ(a.message_ids(), b.message_ids()) << label;
    EXPECT_EQ(a.trie().Forms(), b.trie().Forms()) << label;
    const std::vector<std::string> surfaces = a.candidate_base().surfaces();
    EXPECT_EQ(surfaces, b.candidate_base().surfaces()) << label;
    for (const std::string& surface : surfaces) {
      const auto& want = a.candidate_base().Mentions(surface);
      const auto& got = b.candidate_base().Mentions(surface);
      ASSERT_EQ(got.size(), want.size()) << label << " '" << surface << "'";
      for (size_t i = 0; i < want.size(); ++i) {
        const Matrix& x = want[i].local_embedding;
        const Matrix& y = got[i].local_embedding;
        ASSERT_TRUE(got[i].message_id == want[i].message_id &&
                    got[i].begin_token == want[i].begin_token &&
                    got[i].end_token == want[i].end_token &&
                    x.rows() == y.rows() && x.cols() == y.cols() &&
                    std::memcmp(x.data(), y.data(),
                                x.size() * sizeof(float)) == 0)
            << label << " '" << surface << "' mention " << i;
      }
    }
    for (int s = 0; s < 4; ++s) {
      const auto stage = static_cast<core::PipelineStage>(s);
      EXPECT_EQ(a.Predictions(stage), b.Predictions(stage))
          << label << " " << core::PipelineStageName(stage);
    }
  }

  static harness::TrainedSystem* system_;
};

harness::TrainedSystem* PipelineTest::system_ = nullptr;

TEST_F(PipelineTest, TrainingProducedUsableComponents) {
  EXPECT_LT(system_->fine_tune_loss, 0.5);
  EXPECT_GT(system_->d5_mention_examples, 100u);
  EXPECT_GT(system_->embedder_result.dataset_size, 500u);
  EXPECT_GT(system_->classifier_result.validation_macro_f1, 0.4);
}

TEST_F(PipelineTest, GlobalBeatsLocalOnStream) {
  auto messages = Dataset("D2");
  auto pipeline = MakePipeline();
  pipeline.ProcessAll(messages, 64);
  auto gold = harness::GoldSpans(messages);
  auto local = eval::EvaluateNer(
      gold, pipeline.Predictions(core::PipelineStage::kLocalOnly));
  auto global = eval::EvaluateNer(
      gold, pipeline.Predictions(core::PipelineStage::kFullGlobal));
  // The paper's headline claim at miniature scale: collective processing
  // beats isolated processing.
  EXPECT_GT(global.macro_f1, local.macro_f1);
  EXPECT_GT(global.micro.recall, local.micro.recall);
}

TEST_F(PipelineTest, IncrementalMatchesSingleBatch) {
  // Continuous execution contract: processing in many small batches ends
  // in the same state/predictions as one big batch (Sec. III).
  auto messages = Dataset("D1");
  auto batched = MakePipeline();
  batched.ProcessAll(messages, 16);
  auto single = MakePipeline();
  single.ProcessAll(messages, messages.size());

  EXPECT_EQ(batched.trie().size(), single.trie().size());
  EXPECT_EQ(batched.candidate_base().TotalMentions(),
            single.candidate_base().TotalMentions());
  auto a = batched.Predictions();
  auto b = single.Predictions();
  ASSERT_EQ(a.size(), b.size());
  size_t differing = 0;
  for (size_t m = 0; m < a.size(); ++m) {
    if (!(a[m] == b[m])) ++differing;
  }
  // Identical mention pools + deterministic components => identical output.
  EXPECT_EQ(differing, 0u);
}

TEST_F(PipelineTest, PreEncodedBatchesMatchProcessBatchBitwise) {
  // The stage-graph split (core/stages.h): running LocalEncode externally
  // via EncodeMany and feeding the results to ProcessBatchPreEncoded must
  // evolve the stream state bit-identically to plain ProcessBatch — the
  // contract bench/e2e's split replay is built on. Checked at every
  // ablation stage, windowed so eviction runs too.
  auto messages = Dataset("D1");
  const size_t batch = 16;
  const size_t window = messages.size() / 3;
  auto plain = MakePipeline(window);
  auto pre_encoded = MakePipeline(window);
  for (size_t begin = 0; begin < messages.size(); begin += batch) {
    const size_t end = std::min(messages.size(), begin + batch);
    const std::vector<stream::Message> slice(
        messages.begin() + static_cast<ptrdiff_t>(begin),
        messages.begin() + static_cast<ptrdiff_t>(end));
    plain.ProcessBatch(slice);
    std::vector<const std::vector<text::Token>*> sentences;
    for (const stream::Message& message : slice) {
      sentences.push_back(&message.tokens);
    }
    pre_encoded.ProcessBatchPreEncoded(
        slice, system_->bundle.model().EncodeMany(sentences));
  }
  for (int s = 0; s < 4; ++s) {
    const auto stage = static_cast<core::PipelineStage>(s);
    const auto a = plain.Predictions(stage);
    const auto b = pre_encoded.Predictions(stage);
    ASSERT_EQ(a.size(), b.size()) << core::PipelineStageName(stage);
    for (size_t m = 0; m < a.size(); ++m) {
      EXPECT_TRUE(a[m] == b[m])
          << core::PipelineStageName(stage) << " message " << m;
    }
  }
  auto fa = plain.TakeFinalized();
  auto fb = pre_encoded.TakeFinalized();
  ASSERT_EQ(fa.size(), fb.size());
  for (size_t i = 0; i < fa.size(); ++i) {
    EXPECT_TRUE(fa[i] == fb[i]) << "finalized " << i;
  }
}

TEST_F(PipelineTest, PredictionsAreNonOverlappingWithinSentence) {
  auto messages = Dataset("D3");
  auto pipeline = MakePipeline();
  pipeline.ProcessAll(messages, 128);
  for (const auto& spans : pipeline.Predictions()) {
    for (size_t i = 0; i < spans.size(); ++i) {
      EXPECT_LT(spans[i].begin_token, spans[i].end_token);
      for (size_t j = i + 1; j < spans.size(); ++j) {
        const bool overlap = spans[i].begin_token < spans[j].end_token &&
                             spans[j].begin_token < spans[i].end_token;
        EXPECT_FALSE(overlap);
      }
    }
  }
}

TEST_F(PipelineTest, MentionExtractionRecallsMoreThanLocal) {
  // Stage 1 adds missed mentions of seeded surfaces: recall must rise.
  auto messages = Dataset("D2");
  auto pipeline = MakePipeline();
  pipeline.ProcessAll(messages, 64);
  auto gold = harness::GoldSpans(messages);
  auto local = eval::EvaluateNer(
      gold, pipeline.Predictions(core::PipelineStage::kLocalOnly));
  auto extract = eval::EvaluateNer(
      gold, pipeline.Predictions(core::PipelineStage::kMentionExtraction));
  EXPECT_GE(extract.emd.recall, local.emd.recall);
}

TEST_F(PipelineTest, TimersAccumulate) {
  auto messages = Dataset("D1");
  auto pipeline = MakePipeline();
  pipeline.ProcessAll(messages, 64);
  EXPECT_GT(pipeline.local_seconds(), 0.0);
  EXPECT_GT(pipeline.global_seconds(), 0.0);
}

TEST_F(PipelineTest, CandidateBaseConsistentWithTrie) {
  auto messages = Dataset("D1");
  auto pipeline = MakePipeline();
  pipeline.ProcessAll(messages, 64);
  // Every surface with mentions must be registered in the CTrie.
  for (const auto& surface : pipeline.candidate_base().surfaces()) {
    std::vector<std::string> tokens = SplitChar(surface, ' ');
    EXPECT_TRUE(pipeline.trie().Contains(tokens)) << surface;
    // Every mention id referenced by a candidate is within the pool.
    const auto& pool = pipeline.candidate_base().Mentions(surface);
    for (const auto& cand : pipeline.Candidates(surface)) {
      for (size_t id : cand.mention_ids) EXPECT_LT(id, pool.size());
    }
  }
}

TEST_F(PipelineTest, LargeMentionPoolUsesCentroidTailAssignment) {
  // A surface with >64 mentions exercises the bounded-clustering path
  // (head sample + nearest-centroid assignment for the tail). Every
  // mention must still land in some candidate cluster, and the pool counts
  // once in cluster.pools_over_cap per clustering. The stream repeats two
  // contexts of one surface: a message whose local NER seeds it and
  // another message that mentions it.
  const auto dataset = Dataset("D2");
  auto probe = MakePipeline();
  probe.ProcessAll(dataset, 64);
  std::string surface;
  const stream::Message* seed = nullptr;
  const stream::Message* other = nullptr;
  for (int64_t id : probe.message_ids()) {
    const stream::SentenceRecord* rec = probe.tweet_base().Find(id);
    for (const text::EntitySpan& span : text::DecodeBio(rec->local_bio)) {
      const std::string form = core::SpanSurfaceString(
          rec->message, span.begin_token, span.end_token);
      for (const auto& m : probe.candidate_base().Mentions(form)) {
        if (m.message_id == id) continue;
        surface = form;
        seed = &rec->message;
        other = &probe.tweet_base().Find(m.message_id)->message;
        break;
      }
      if (seed != nullptr) break;
    }
    if (seed != nullptr) break;
  }
  ASSERT_NE(seed, nullptr);
  std::vector<stream::Message> messages;
  for (int i = 0; i < 90; ++i) {
    messages.push_back(i % 2 == 0 ? *seed : *other);
    messages.back().id = 100000 + i;
  }
  auto pipeline = MakePipeline();
  pipeline.ProcessAll(messages, 30);
  const auto& pool = pipeline.candidate_base().Mentions(surface);
  ASSERT_GT(pool.size(), core::stages::kMaxClusterPool) << surface;
  metrics::SetEnabled(true);
  metrics::MetricsRegistry::Global().ResetAll();
  const auto candidates = pipeline.Candidates(surface);
  const uint64_t over_cap = metrics::MetricsRegistry::Global()
                                .GetCounter("cluster.pools_over_cap")
                                ->value();
  metrics::SetEnabled(false);
  EXPECT_EQ(over_cap, 1u);
  size_t assigned = 0;
  for (const auto& cand : candidates) assigned += cand.mention_ids.size();
  EXPECT_EQ(assigned, pool.size());
}

TEST_F(PipelineTest, MentionExtractionStageUsesMajorityLocalType) {
  // Whatever type the local model assigns most often to a surface is the
  // type every extracted mention of that surface carries at stage 1.
  auto messages = Dataset("D2");
  auto pipeline = MakePipeline();
  pipeline.ProcessAll(messages, 64);
  auto stage1 = pipeline.Predictions(core::PipelineStage::kMentionExtraction);
  // Per surface, all stage-1 mentions must share one type.
  std::map<std::string, std::set<int>> types_by_surface;
  const auto& ids = pipeline.message_ids();
  for (size_t m = 0; m < stage1.size(); ++m) {
    const auto* rec = pipeline.tweet_base().Find(ids[m]);
    for (const auto& span : stage1[m]) {
      types_by_surface[core::SpanSurfaceString(rec->message, span.begin_token,
                                               span.end_token)]
          .insert(static_cast<int>(span.type));
    }
  }
  for (const auto& [surface, types] : types_by_surface) {
    EXPECT_EQ(types.size(), 1u) << surface;
  }
}

TEST_F(PipelineTest, EmdGlobalizerVariantEmitsUntypedMentions) {
  auto messages = Dataset("D2");
  auto pipeline = MakePipeline();
  pipeline.ProcessAll(messages, 64);
  auto emd = harness::EmdGlobalizerPredictions(pipeline,
                                               system_->bundle.classifier());
  ASSERT_EQ(emd.size(), messages.size());
  size_t total = 0;
  for (const auto& spans : emd) total += spans.size();
  EXPECT_GT(total, 0u);
  // The variant never splits a surface form: whenever it accepts a surface,
  // the full pipeline's mention set for that surface is a superset of what
  // both systems extracted — check EMD recall is at least stage-local's.
  auto gold = harness::GoldSpans(messages);
  auto emd_scores = eval::EvaluateNer(gold, emd);
  auto local = eval::EvaluateNer(
      gold, pipeline.Predictions(core::PipelineStage::kLocalOnly));
  EXPECT_GT(emd_scores.emd.f1, local.emd.f1);
}

TEST_F(PipelineTest, InstrumentedCountsMatchPipelineOutputs) {
  // The observability counters are not estimates: for a single-batch run
  // and one read of the system output each one must equal the
  // corresponding quantity recoverable from the pipeline's own state.
  auto messages = Dataset("D1");
  auto pipeline = MakePipeline();

  metrics::SetEnabled(true);
  metrics::MetricsRegistry::Global().ResetAll();
  pipeline.ProcessAll(messages, messages.size());
  // An unwindowed batch stores pools only: nothing is clustered until the
  // output is read, and the read clusters every surface once.
  EXPECT_EQ(metrics::MetricsRegistry::Global()
                .GetCounter("pipeline.clusters_formed_total")
                ->value(),
            0u);
  pipeline.Predictions(core::PipelineStage::kFullGlobal);
  // Snapshot before any further pipeline calls so that evaluation-time work
  // cannot shift the counters.
  auto& registry = metrics::MetricsRegistry::Global();
  const uint64_t sentences =
      registry.GetCounter("pipeline.sentences_total")->value();
  const uint64_t local_spans =
      registry.GetCounter("pipeline.local_spans_total")->value();
  const uint64_t new_surfaces =
      registry.GetCounter("pipeline.new_surfaces_total")->value();
  const uint64_t mentions =
      registry.GetCounter("pipeline.mentions_extracted_total")->value();
  const uint64_t embeds =
      registry.GetCounter("pipeline.phrase_embeds_total")->value();
  const uint64_t clusters =
      registry.GetCounter("pipeline.clusters_formed_total")->value();
  const uint64_t classifications =
      registry.GetCounter("pipeline.classifications_total")->value();
  const uint64_t stage_calls =
      registry.GetCounter("stage.local_ner.calls_total")->value();
  metrics::SetEnabled(false);

  EXPECT_EQ(sentences, messages.size());
  EXPECT_EQ(stage_calls, 1u);  // one batch => one local_ner span
  EXPECT_EQ(new_surfaces, pipeline.trie().size());
  EXPECT_EQ(mentions, pipeline.candidate_base().TotalMentions());
  // Every extracted mention was embedded exactly once on its way in.
  EXPECT_EQ(embeds, mentions);
  size_t spans = 0;
  for (const auto& s : pipeline.Predictions(core::PipelineStage::kLocalOnly)) {
    spans += s.size();
  }
  EXPECT_EQ(local_spans, spans);
  size_t candidates = 0;
  for (const auto& surface : pipeline.candidate_base().surfaces()) {
    candidates += pipeline.Candidates(surface).size();
  }
  EXPECT_EQ(clusters, candidates);
  // One classifier call per cluster formed by the read.
  EXPECT_EQ(classifications, clusters);
  // Stage histograms saw the run: every span that opened also closed.
  for (const char* stage :
       {"local_ner", "mention_extraction", "phrase_embed", "cluster",
        "classify"}) {
    auto* wall = registry.GetHistogram(std::string("stage.") + stage +
                                       ".wall_seconds");
    auto* calls =
        registry.GetCounter(std::string("stage.") + stage + ".calls_total");
    EXPECT_EQ(wall->count(), calls->value()) << stage;
    EXPECT_GT(wall->count(), 0u) << stage;
  }
}

TEST_F(PipelineTest, EvictFlushMatchesClusteringEverySurface) {
  // Eviction flushes a departing message from the partitions of only the
  // surfaces that hold its mentions. The oracle clusters every surface of
  // the window just before Evict and reads the departing messages' spans
  // off those partitions; the flush must equal it byte for byte.
  const auto messages = Dataset("D1");
  const core::NerGlobalizerConfig base =
      core::DefaultPipelineConfig(system_->bundle);
  const core::EntityClassifier& classifier = system_->bundle.classifier();
  for (const size_t window : {22u, 40u}) {
    for (const size_t batch : {7u, 20u}) {
      const std::string config = "window " + std::to_string(window) +
                                 " batch " + std::to_string(batch);
      core::NerGlobalizerConfig pipeline_config = base;
      pipeline_config.window_messages = window;
      core::StreamState state;
      size_t flushed = 0;
      for (size_t begin = 0; begin < messages.size(); begin += batch) {
        const std::vector<stream::Message> chunk(
            messages.begin() + static_cast<std::ptrdiff_t>(begin),
            messages.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(messages.size(), begin + batch)));
        core::stages::StageContext ctx;
        ctx.config = &pipeline_config;
        ctx.batch = &chunk;
        core::stages::LocalEncode(system_->bundle, state, ctx);
        core::stages::IngestLocal(system_->bundle, state, ctx);
        core::stages::ExtractMentions(system_->bundle, state, ctx);

        const std::vector<int64_t>& ids = state.tweet_base.ids();
        const size_t departing =
            ids.size() > window ? ids.size() - window : 0;
        std::map<int64_t, std::vector<text::EntitySpan>> spans_of;
        for (size_t i = 0; i < departing; ++i) spans_of[ids[i]];
        const std::vector<std::string>& surfaces =
            state.candidate_base.surfaces();
        const auto partitions = core::stages::BuildCandidates(
            classifier, state, pipeline_config, surfaces);
        for (size_t s = 0; s < surfaces.size(); ++s) {
          const auto& pool = state.candidate_base.Mentions(surfaces[s]);
          for (const stream::CandidateEntry& entry : partitions[s]) {
            if (!entry.is_entity) continue;
            for (const size_t mention : entry.mention_ids) {
              auto it = spans_of.find(pool[mention].message_id);
              if (it == spans_of.end()) continue;
              it->second.push_back({pool[mention].begin_token,
                                    pool[mention].end_token, entry.type});
            }
          }
        }
        std::vector<core::FinalizedMessage> want;
        for (size_t i = 0; i < departing; ++i) {
          want.push_back({ids[i], core::stages::ResolveOverlaps(
                                      std::move(spans_of[ids[i]]))});
        }

        const size_t before = state.finalized.size();
        core::stages::Evict(system_->bundle, state, ctx);
        const std::vector<core::FinalizedMessage> got(
            state.finalized.begin() + static_cast<std::ptrdiff_t>(before),
            state.finalized.end());
        const std::string label = config + " at " + std::to_string(begin);
        ASSERT_EQ(got.size(), want.size()) << label;
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].message_id, want[i].message_id) << label;
          EXPECT_EQ(got[i].spans, want[i].spans)
              << label << " message " << want[i].message_id;
        }
        flushed += got.size();
      }
      EXPECT_EQ(flushed, messages.size() - window) << config;
    }
  }
}

TEST_F(PipelineTest, WindowedEvictionBoundsState) {
  // 5x the window worth of messages: the live stores must stay bounded by
  // the window the whole way, and every message ends up finalized exactly
  // once, in stream order.
  auto messages = Dataset("D2");
  const size_t window = messages.size() / 5;
  ASSERT_GE(window, 10u);
  auto pipeline = MakePipeline(window);
  std::vector<core::FinalizedMessage> finalized;
  const size_t batch = window / 2;
  for (size_t i = 0; i < messages.size(); i += batch) {
    std::vector<stream::Message> chunk(
        messages.begin() + static_cast<std::ptrdiff_t>(i),
        messages.begin() +
            static_cast<std::ptrdiff_t>(std::min(i + batch, messages.size())));
    pipeline.ProcessBatch(chunk);
    EXPECT_LE(pipeline.tweet_base().size(), window);
    for (auto& f : pipeline.TakeFinalized()) finalized.push_back(std::move(f));
  }
  EXPECT_EQ(pipeline.tweet_base().size(), window);
  EXPECT_EQ(pipeline.evicted_messages(), messages.size() - window);
  ASSERT_EQ(finalized.size(), messages.size() - window);
  for (size_t i = 0; i < finalized.size(); ++i) {
    EXPECT_EQ(finalized[i].message_id, messages[i].id);
  }
  // Every surface still registered has live support: its pool is non-empty
  // or some live message's local NER seeded it.
  for (const auto& surface : pipeline.candidate_base().surfaces()) {
    std::vector<std::string> tokens = SplitChar(surface, ' ');
    EXPECT_TRUE(pipeline.trie().Contains(tokens)) << surface;
  }
}

TEST_F(PipelineTest, WindowedStateMatchesFromScratchRebuild) {
  // The pools are a function of the window: after every batch, the
  // bounded pipeline's pools, surfaces and predictions equal those of a
  // pipeline that saw only the live window, in one batch (one full-trie
  // scan of every sentence), byte for byte.
  const auto messages = Dataset("D2");
  const size_t window = messages.size() / 4;
  for (const size_t batch : {size_t{7}, window / 2, size_t{37}}) {
    auto windowed = MakePipeline(window);
    for (size_t begin = 0; begin < messages.size(); begin += batch) {
      windowed.ProcessBatch(std::vector<stream::Message>(
          messages.begin() + static_cast<std::ptrdiff_t>(begin),
          messages.begin() + static_cast<std::ptrdiff_t>(
                                 std::min(messages.size(), begin + batch))));
      std::vector<stream::Message> live;
      for (const int64_t id : windowed.message_ids()) {
        live.push_back(windowed.tweet_base().Find(id)->message);
      }
      auto rebuilt = MakePipeline();
      rebuilt.ProcessBatch(live);
      ExpectSameWindow(windowed, rebuilt,
                       "batch " + std::to_string(batch) + " at " +
                           std::to_string(begin));
    }
    EXPECT_EQ(windowed.tweet_base().size(), window);
  }
}

TEST_F(PipelineTest, ALongerFormReplacesTheShorterMatchInOldSentences) {
  // Message 1 seeds "andy"; a later batch seeds "andy beshear", which is
  // then message 1's longest match too. Its "andy" mention must give way,
  // as in a rebuild that scans the window against both forms at once.
  auto message = [](int64_t id, const std::string& text) {
    stream::Message m;
    m.id = id;
    m.text = text;
    m.tokens = text::Tokenizer().Tokenize(text);
    return m;
  };
  auto encoded = [](const stream::Message& m, text::EntitySpan local) {
    lm::EncodeResult result = system_->bundle.model().Encode(m.tokens);
    result.bio_labels = text::EncodeBio(m.tokens.size(), {local});
    return result;
  };
  const stream::Message first = message(1, "andy beshear spoke");
  const stream::Message second = message(2, "governor andy beshear");
  const text::EntitySpan andy{0, 1, text::EntityType::kPerson};
  const text::EntitySpan andy_beshear{1, 3, text::EntityType::kPerson};

  auto pipeline = MakePipeline();
  pipeline.ProcessBatchPreEncoded({first}, {encoded(first, andy)});
  pipeline.ProcessBatchPreEncoded({second}, {encoded(second, andy_beshear)});
  EXPECT_TRUE(pipeline.candidate_base().Mentions("andy").empty());
  EXPECT_EQ(pipeline.candidate_base().Mentions("andy beshear").size(), 2u);

  auto rebuilt = MakePipeline();
  rebuilt.ProcessBatchPreEncoded(
      {first, second},
      {encoded(first, andy), encoded(second, andy_beshear)});
  ExpectSameWindow(pipeline, rebuilt, "andy beshear");
}

TEST_F(PipelineTest, MemoryUsageReflectsEviction) {
  auto messages = Dataset("D2");
  auto unbounded = MakePipeline();
  unbounded.ProcessAll(messages, 32);
  auto windowed = MakePipeline(/*window_messages=*/32);
  windowed.ProcessAll(messages, 32);
  const auto big = unbounded.MemoryUsage();
  const auto small = windowed.MemoryUsage();
  EXPECT_GT(big.total_bytes, 0u);
  EXPECT_LT(small.tweet_base_bytes, big.tweet_base_bytes);
  EXPECT_LT(small.total_bytes, big.total_bytes);
  EXPECT_EQ(big.total_bytes, big.tweet_base_bytes + big.candidate_base_bytes +
                                 big.trie_bytes);
}

TEST_F(PipelineTest, WindowedRunEmbedsEveryExtractedMentionOnce) {
  // Eviction rescans re-extract spans of live sentences. Each extraction
  // is embedded afresh into the pool, its only copy, so the embed counter
  // equals the extraction counter with a window too.
  auto messages = Dataset("D2");
  auto pipeline = MakePipeline(/*window_messages=*/messages.size() / 4);
  metrics::SetEnabled(true);
  metrics::MetricsRegistry::Global().ResetAll();
  pipeline.ProcessAll(messages, messages.size() / 8);
  auto& registry = metrics::MetricsRegistry::Global();
  const uint64_t mentions =
      registry.GetCounter("pipeline.mentions_extracted_total")->value();
  const uint64_t embeds =
      registry.GetCounter("pipeline.phrase_embeds_total")->value();
  const uint64_t evicted = registry.GetCounter("stream.evicted_messages")->value();
  metrics::SetEnabled(false);
  EXPECT_GT(evicted, 0u);
  EXPECT_GT(mentions, pipeline.candidate_base().TotalMentions());
  EXPECT_EQ(embeds, mentions);
}

TEST_F(PipelineTest, RestoreRejectsEmptyBundleFingerprint) {
  // A current-layout header whose fingerprint is empty, followed by a valid
  // empty stream state: the fingerprint is compared like any other, so the
  // file does not restore onto this bundle.
  const std::string path =
      std::string(::testing::TempDir()) + "/pipeline_empty_fingerprint.bin";
  const core::NerGlobalizerConfig config =
      core::DefaultPipelineConfig(system_->bundle);
  {
    io::TensorWriter writer(path);
    writer.PutU32(8);      // layout version
    writer.PutString("");  // bundle fingerprint
    writer.PutF32(config.cluster_threshold);
    writer.PutU64(config.max_mention_span);
    writer.PutU64(config.window_messages);
    writer.PutF64(0.0);  // local seconds
    writer.PutF64(0.0);  // global seconds
    ASSERT_TRUE(writer.EndRecord(io::kTagCheckpoint).ok());
    ASSERT_TRUE(core::StreamState().Save(&writer).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto pipeline = MakePipeline();
  io::TensorReader reader(path);
  const Status s = pipeline.Restore(&reader);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_NE(s.message().find("bundle"), std::string::npos) << s.ToString();
  std::remove(path.c_str());
}

TEST_F(PipelineTest, RestoredWindowDerivesTheSameStateAfterEveryBatch) {
  // The trie, the seed support and the local type votes are not in a
  // checkpoint: restore derives them from the re-encoded window. After
  // every batch a restored pipeline must hold the same trie and
  // predictions, and run the next batch to the same finalized output.
  const auto messages = Dataset("D2");
  struct Config {
    size_t window, batch;
  };
  for (const Config& c : {Config{40, 20}, Config{22, 7}, Config{32, 37},
                          Config{0, 48}}) {
    const std::string config = "window " + std::to_string(c.window) +
                               " batch " + std::to_string(c.batch);
    auto pipeline = MakePipeline(c.window);
    std::optional<core::NerGlobalizer> restored;
    for (size_t begin = 0; begin < messages.size(); begin += c.batch) {
      const std::vector<stream::Message> chunk(
          messages.begin() + static_cast<std::ptrdiff_t>(begin),
          messages.begin() + static_cast<std::ptrdiff_t>(
                                 std::min(messages.size(), begin + c.batch)));
      const std::string label = config + " at " + std::to_string(begin);
      pipeline.ProcessBatch(chunk);
      const auto finalized = pipeline.TakeFinalized();
      if (restored) {
        restored->ProcessBatch(chunk);
        EXPECT_EQ(restored->TakeFinalized(), finalized) << label;
        ExpectSameWindow(pipeline, *restored, label + " continued");
      }
      restored.emplace(Reload(pipeline));
      ExpectSameWindow(pipeline, *restored, label + " restored");
    }
  }
}

TEST_F(PipelineTest, ReusedLiveIdIsDroppedAndTheWindowStaysRestorable) {
  // A message reusing a live id would replace the live record while its
  // seed support and mentions stayed behind. Ingest drops it instead, so
  // the run equals one that never saw it and its checkpoint restores.
  const auto messages = Dataset("D2");
  ASSERT_GE(messages.size(), 48u);
  auto slice = [&](size_t begin, size_t end) {
    return std::vector<stream::Message>(
        messages.begin() + static_cast<std::ptrdiff_t>(begin),
        messages.begin() + static_cast<std::ptrdiff_t>(end));
  };
  stream::Message reused;
  reused.id = messages[5].id;
  reused.text = "ok";
  reused.tokens = text::Tokenizer().Tokenize(reused.text);

  auto clean = MakePipeline();
  auto pipeline = MakePipeline();
  metrics::SetEnabled(true);
  metrics::MetricsRegistry::Global().ResetAll();
  metrics::Counter* const dropped = metrics::MetricsRegistry::Global().GetCounter(
      "pipeline.duplicate_messages_dropped_total");
  clean.ProcessBatch(slice(0, 16));
  pipeline.ProcessBatch(slice(0, 16));
  std::vector<stream::Message> second = slice(16, 32);
  second.insert(second.begin() + 3, reused);
  clean.ProcessBatch(slice(16, 32));
  pipeline.ProcessBatch(second);
  EXPECT_EQ(dropped->value(), 1u);
  EXPECT_EQ(pipeline.tweet_base().Find(reused.id)->message.text,
            messages[5].text);
  ExpectSameWindow(clean, pipeline, "after the reused id");

  auto restored = Reload(pipeline);
  ExpectSameWindow(pipeline, restored, "restored");
  // A repeat within one batch is dropped the same way.
  std::vector<stream::Message> third = slice(32, 48);
  third.push_back(third.front());
  clean.ProcessBatch(slice(32, 48));
  pipeline.ProcessBatch(third);
  restored.ProcessBatch(third);
  EXPECT_EQ(dropped->value(), 3u);
  metrics::SetEnabled(false);
  ExpectSameWindow(clean, pipeline, "continued");
  ExpectSameWindow(pipeline, restored, "restored and continued");
}

TEST_F(PipelineTest, RunDatasetAlignsScoresAndPredictions) {
  auto run = harness::RunDataset(*system_, "D1", 0.08, 64);
  EXPECT_EQ(run.messages.size(), run.stage_predictions[0].size());
  EXPECT_EQ(run.messages.size(), run.stage_predictions[3].size());
  // Scores were computed from those predictions.
  auto recomputed = eval::EvaluateNer(harness::GoldSpans(run.messages),
                                      run.stage_predictions[3]);
  EXPECT_DOUBLE_EQ(recomputed.macro_f1, run.stage_scores[3].macro_f1);
}

}  // namespace
}  // namespace nerglob
