#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <new>

#include "nn/losses.h"

#include "core/entity_classifier.h"
#include "core/local_ner.h"
#include "core/ner_globalizer.h"
#include "core/phrase_embedder.h"
#include "core/training.h"
#include "nn/optimizer.h"
#include "text/tokenizer.h"

// Counts this thread's global operator new calls, so a test can tell how
// many heap allocations one Predict or EmbedInto makes. Every test file is
// its own binary, so the replacement reaches core_test only.
namespace {
thread_local long t_new_calls = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_new_calls;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// std::stable_sort's buffer comes from the nothrow form; it must pair with
// the free() below too (AddressSanitizer checks the pairing).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++t_new_calls;
  return std::malloc(size == 0 ? 1 : size);
}
// Out of line: inlined into a caller, GCC would flag the free() of an
// operator new pointer (-Wmismatched-new-delete), which here is malloc's.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace nerglob::core {
namespace {

using text::EntityType;

// operator new calls of one call of `fn` after three warm-up calls.
template <typename Fn>
long NewCallsPerCall(const Fn& fn) {
  for (int i = 0; i < 3; ++i) fn();
  const long before = t_new_calls;
  fn();
  return t_new_calls - before;
}

stream::Message MakeMsg(int64_t id, const std::string& txt) {
  stream::Message m;
  m.id = id;
  m.text = txt;
  m.tokens = text::Tokenizer().Tokenize(txt);
  return m;
}

TEST(SpanHelpersTest, MatchTokensAndSurface) {
  auto m = MakeMsg(1, "Gov Andy Beshear in #Kentucky");
  auto toks = SpanMatchTokens(m, 1, 3);
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0], "andy");
  EXPECT_EQ(toks[1], "beshear");
  EXPECT_EQ(SpanSurfaceString(m, 1, 3), "andy beshear");
  EXPECT_EQ(SpanSurfaceString(m, 4, 5), "kentucky");  // hashtag stripped
}

TEST(PhraseEmbedderTest, OutputShapeAndDeterminism) {
  Rng rng(1);
  PhraseEmbedder embedder(8, &rng);
  Matrix tokens = Matrix::Randn(5, 8, 1.0f, &rng);
  Matrix a = embedder.Embed(tokens, 1, 3);
  Matrix b = embedder.Embed(tokens, 1, 3);
  EXPECT_EQ(a.rows(), 1u);
  EXPECT_EQ(a.cols(), 8u);
  EXPECT_EQ(a, b);
}

TEST(PhraseEmbedderTest, EmbedIntoMatchesTapeAndAllocatesNothingOnceWarm) {
  Rng rng(11);
  PhraseEmbedder embedder(8, &rng);
  Matrix tokens = Matrix::Randn(6, 8, 1.0f, &rng);
  Matrix out;
  embedder.EmbedInto(tokens, 1, 4, &out);
  EXPECT_EQ(out, embedder.Forward(tokens, 1, 4).value());
  // The scope keeps every activation in the arena and `out` is reused.
  EXPECT_EQ(NewCallsPerCall([&] { embedder.EmbedInto(tokens, 1, 4, &out); }),
            0);
}

TEST(PhraseEmbedderTest, PoolingIsMeanOverSpan) {
  // With normalize off and identity-free dense layer we can't check exact
  // values, but a single-token span must differ from a two-token span that
  // includes a very different second token.
  Rng rng(2);
  PhraseEmbedder embedder(4, &rng, /*normalize=*/true);
  Matrix tokens = Matrix::FromRows(
      {{1, 0, 0, 0}, {0, 40, 0, 0}, {0, 0, 1, 0}});
  Matrix one = embedder.Embed(tokens, 0, 1);
  Matrix two = embedder.Embed(tokens, 0, 2);
  EXPECT_GT(CosineDistance(one, two), 1e-3f);
}

TEST(PhraseEmbedderTest, NormalizationAblationChangesOutput) {
  Rng rng1(3), rng2(3);
  PhraseEmbedder with_norm(4, &rng1, /*normalize=*/true);
  PhraseEmbedder without_norm(4, &rng2, /*normalize=*/false);
  Matrix tokens = Matrix::FromRows({{5, 5, 5, 5}});
  Matrix a = with_norm.Embed(tokens, 0, 1);
  Matrix b = without_norm.Embed(tokens, 0, 1);
  // Same initial weights (same seed), different pipelines -> different out.
  EXPECT_GT(CosineDistance(a, b) + std::fabs(a.FrobeniusNorm() - b.FrobeniusNorm()),
            1e-4f);
}

TEST(PhraseEmbedderTest, TrainableViaTripletLoss) {
  // Two "contexts" (orthogonal token embeddings) with the same surface:
  // training must push their phrase embeddings apart.
  Rng rng(4);
  PhraseEmbedder embedder(4, &rng);
  Matrix ctx_a = Matrix::FromRows({{1, 0.1f, 0, 0}});
  Matrix ctx_a2 = Matrix::FromRows({{0.9f, 0, 0.1f, 0}});
  Matrix ctx_b = Matrix::FromRows({{0, 0.1f, 1, 0}});
  nn::Adam opt(embedder.Parameters(), 0.05f);
  for (int i = 0; i < 60; ++i) {
    opt.ZeroGrad();
    ag::Var loss = nn::TripletCosineLoss(embedder.Forward(ctx_a, 0, 1),
                                         embedder.Forward(ctx_a2, 0, 1),
                                         embedder.Forward(ctx_b, 0, 1), 1.0f);
    loss.Backward();
    opt.Step();
  }
  const float d_pos = CosineDistance(embedder.Embed(ctx_a, 0, 1),
                                     embedder.Embed(ctx_a2, 0, 1));
  const float d_neg = CosineDistance(embedder.Embed(ctx_a, 0, 1),
                                     embedder.Embed(ctx_b, 0, 1));
  EXPECT_LT(d_pos + 0.3f, d_neg);
}

TEST(EntityClassifierTest, PredictionShapeAndConfidence) {
  Rng rng(5);
  EntityClassifier clf(6, 8, &rng);
  Matrix members = Matrix::Randn(4, 6, 1.0f, &rng);
  auto pred = clf.Predict(members);
  EXPECT_GE(pred.cls, 0);
  EXPECT_LT(pred.cls, kNumClassifierClasses);
  EXPECT_GT(pred.confidence, 0.0f);
  EXPECT_LE(pred.confidence, 1.0f);
  Matrix global = clf.GlobalEmbedding(members);
  EXPECT_EQ(global.rows(), 1u);
  EXPECT_EQ(global.cols(), 6u);
}

TEST(EntityClassifierTest, PredictMatchesTapeAndAllocatesNothingOnceWarm) {
  Rng rng(12);
  for (PoolingMode pooling : {PoolingMode::kAttention, PoolingMode::kMean}) {
    EntityClassifier clf(6, 8, &rng, pooling);
    Matrix members = Matrix::Randn(12, 6, 1.0f, &rng);
    const Matrix probs = SoftmaxRows(clf.ForwardLogits(members).value());
    const EntityClassifier::Prediction pred = clf.Predict(members);
    for (size_t c = 0; c < probs.cols(); ++c) {
      EXPECT_LE(probs.At(0, c), pred.confidence);
    }
    EXPECT_EQ(pred.confidence, probs.At(0, static_cast<size_t>(pred.cls)));
    EXPECT_EQ(NewCallsPerCall([&] { clf.Predict(members); }), 0);
  }
}

TEST(EntityClassifierTest, PooledEmbeddingIsConvexCombination) {
  // Attention weights are a softmax: the global embedding must lie inside
  // the per-coordinate envelope of the member embeddings.
  Rng rng(6);
  EntityClassifier clf(3, 4, &rng);
  Matrix members = Matrix::FromRows({{0, 0, 0}, {1, 2, 3}});
  Matrix global = clf.GlobalEmbedding(members);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_GE(global.At(0, c), -1e-5f);
    EXPECT_LE(global.At(0, c), members.At(1, c) + 1e-5f);
  }
}

TEST(EntityClassifierTest, LearnsSeparableClusters) {
  // Class 0 clusters live along e1, class 4 (non-entity) along e2.
  Rng rng(7);
  EntityClassifier clf(4, 8, &rng);
  nn::Adam opt(clf.Parameters(), 0.02f);
  auto make_cluster = [&](float x, float y, size_t n) {
    Matrix m(n, 4);
    for (size_t i = 0; i < n; ++i) {
      m.At(i, 0) = x + 0.05f * static_cast<float>(rng.NextGaussian());
      m.At(i, 1) = y + 0.05f * static_cast<float>(rng.NextGaussian());
    }
    return m;
  };
  for (int epoch = 0; epoch < 120; ++epoch) {
    opt.ZeroGrad();
    ag::Var l0 = ag::CrossEntropyWithLogits(
        clf.ForwardLogits(make_cluster(1, 0, 1 + epoch % 3)), {0});
    ag::Var l1 = ag::CrossEntropyWithLogits(
        clf.ForwardLogits(make_cluster(0, 1, 1 + epoch % 2)), {kNonEntityClass});
    ag::Var loss = ag::ScalarMul(ag::Add(l0, l1), 0.5f);
    loss.Backward();
    opt.Step();
  }
  EXPECT_EQ(clf.Predict(make_cluster(1, 0, 4)).cls, 0);
  EXPECT_EQ(clf.Predict(make_cluster(0, 1, 4)).cls, kNonEntityClass);
}

class LocalNerTest : public ::testing::Test {
 protected:
  LocalNerTest() {
    lm::MicroBertConfig cfg;
    cfg.d_model = 16;
    cfg.num_heads = 2;
    cfg.num_layers = 1;
    cfg.max_seq_len = 16;
    cfg.subword_buckets = 256;
    cfg.dropout = 0.0f;
    model_ = std::make_unique<lm::MicroBert>(cfg, 11);
    // Teach it one pattern so spans are non-empty deterministically.
    std::vector<lm::LabeledSentence> train;
    for (const char* s : {"omega speaks now", "we saw omega", "omega wins"}) {
      lm::LabeledSentence ex;
      ex.tokens = text::Tokenizer().Tokenize(s);
      ex.bio.assign(ex.tokens.size(), text::kBioOutside);
      for (size_t t = 0; t < ex.tokens.size(); ++t) {
        if (ex.tokens[t].match == "omega") {
          ex.bio[t] = text::BioBeginLabel(EntityType::kPerson);
        }
      }
      train.push_back(ex);
    }
    lm::FineTuneOptions opt;
    opt.epochs = 25;
    opt.batch_size = 3;
    opt.lr = 5e-3f;
    lm::FineTuneForNer(model_.get(), train, opt);
  }

  /// Local NER as the pipeline runs it: EncodeMany, then the serial ingest.
  std::vector<LocalNerOutput> RunLocalNer(
      const std::vector<stream::Message>& batch, StreamState* state) const {
    std::vector<const std::vector<text::Token>*> sentences;
    for (const stream::Message& message : batch) {
      sentences.push_back(&message.tokens);
    }
    std::vector<lm::EncodeResult> encoded = model_->EncodeMany(sentences);
    return IngestEncodedBatch(batch, &encoded, state);
  }

  std::unique_ptr<lm::MicroBert> model_;
};

TEST_F(LocalNerTest, StoresRecordsAndSeedsTrie) {
  // A record holds the message and its BIO labels; the token embeddings
  // stay in the batch's encoder output for its mention extraction.
  StreamState state;
  const std::vector<stream::Message> batch = {MakeMsg(1, "omega speaks now")};
  std::vector<lm::EncodeResult> encoded = model_->EncodeMany({&batch[0].tokens});
  auto outs = IngestEncodedBatch(batch, &encoded, &state);
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0].batch_index, 0u);
  EXPECT_EQ(encoded[0].embeddings.rows(), 3u);
  const stream::SentenceRecord* rec = state.tweet_base.Find(1);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->message.tokens.size(), 3u);
  EXPECT_EQ(rec->local_bio.size(), 3u);
  ASSERT_FALSE(outs[0].local_spans.empty());
  EXPECT_TRUE(state.trie.Contains({"omega"}));
  ASSERT_EQ(outs[0].new_surfaces.size(), 1u);
  EXPECT_EQ(outs[0].new_surfaces[0], "omega");
}

TEST_F(LocalNerTest, DuplicateSurfaceNotReRegistered) {
  StreamState state;
  auto outs = RunLocalNer(
      {MakeMsg(1, "omega speaks now"), MakeMsg(2, "we saw omega")}, &state);
  EXPECT_EQ(state.trie.size(), 1u);
  EXPECT_EQ(outs[0].new_surfaces.size() + outs[1].new_surfaces.size(), 1u);
}

TEST_F(LocalNerTest, RecordBytesDoNotDependOnTheEncoderWidth) {
  // TweetBase::MemoryUsageBytes counts no float array: no record holds
  // encoder output, so a window ingested through encoders of two widths
  // weighs the same.
  const std::vector<stream::Message> batch = {
      MakeMsg(1, "omega speaks now"), MakeMsg(2, "we saw omega today"),
      MakeMsg(3, "nothing to see")};
  auto window_bytes = [&](size_t d_model) {
    lm::MicroBertConfig cfg = model_->config();
    cfg.d_model = d_model;
    const lm::MicroBert model(cfg, 5);
    std::vector<const std::vector<text::Token>*> sentences;
    for (const stream::Message& m : batch) sentences.push_back(&m.tokens);
    std::vector<lm::EncodeResult> encoded = model.EncodeMany(sentences);
    StreamState state;
    IngestEncodedBatch(batch, &encoded, &state);
    EXPECT_EQ(state.tweet_base.size(), batch.size());
    return state.tweet_base.MemoryUsageBytes();
  };
  const size_t narrow = window_bytes(16);
  EXPECT_GT(narrow, 0u);
  EXPECT_EQ(window_bytes(64), narrow);
}

TEST(TrainingTest, CollectMentionExamplesLabels) {
  // A deterministic fake setup: model untrained, so Local NER may find
  // nothing — instead verify labeling logic with a model trained quickly.
  lm::MicroBertConfig cfg;
  cfg.d_model = 16;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.max_seq_len = 16;
  cfg.subword_buckets = 256;
  cfg.dropout = 0.0f;
  lm::MicroBert model(cfg, 13);
  std::vector<lm::LabeledSentence> train;
  for (const char* s : {"zeta is here", "zeta arrived", "i like zeta"}) {
    lm::LabeledSentence ex;
    ex.tokens = text::Tokenizer().Tokenize(s);
    ex.bio.assign(ex.tokens.size(), text::kBioOutside);
    for (size_t t = 0; t < ex.tokens.size(); ++t) {
      if (ex.tokens[t].match == "zeta") {
        ex.bio[t] = text::BioBeginLabel(EntityType::kLocation);
      }
    }
    train.push_back(ex);
  }
  lm::FineTuneOptions opt;
  opt.epochs = 25;
  opt.batch_size = 3;
  opt.lr = 5e-3f;
  lm::FineTuneForNer(&model, train, opt);

  // Labeled stream: "zeta" is gold LOC in msg 0; in msg 1 it appears where
  // gold says nothing -> the collected example there must be non-entity...
  // (msg 1 text uses zeta with no gold span: simulates a false positive).
  auto m0 = MakeMsg(0, "zeta is here");
  m0.gold_spans = {{0, 1, EntityType::kLocation}};
  auto m1 = MakeMsg(1, "zeta arrived");
  // no gold spans on m1
  auto examples = CollectMentionExamples({m0, m1}, model);
  bool saw_entity = false, saw_non_entity = false;
  for (const auto& ex : examples) {
    if (ex.surface == "zeta" && ex.label == static_cast<int>(EntityType::kLocation)) {
      saw_entity = true;
    }
    if (ex.surface == "zeta" && ex.label == kNonEntityClass) saw_non_entity = true;
    EXPECT_GT(ex.token_embeddings.rows(), 0u);
    EXPECT_EQ(ex.token_embeddings.cols(), 16u);
  }
  EXPECT_TRUE(saw_entity);
  EXPECT_TRUE(saw_non_entity);
}

TEST(PipelineStageTest, Names) {
  EXPECT_STREQ(PipelineStageName(PipelineStage::kLocalOnly), "local-only");
  EXPECT_STREQ(PipelineStageName(PipelineStage::kFullGlobal), "full-global");
}

}  // namespace
}  // namespace nerglob::core
