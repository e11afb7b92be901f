#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "lm/micro_bert.h"
#include "text/tokenizer.h"

// Counts this thread's global operator new calls, so a test can tell how
// many heap allocations one Encode makes. Every test file is its own
// binary, so the replacement reaches lm_test only.
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

namespace nerglob::lm {
namespace {

MicroBertConfig TinyConfig() {
  MicroBertConfig cfg;
  cfg.d_model = 16;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ff_mult = 2;
  cfg.max_seq_len = 16;
  cfg.subword_buckets = 512;
  cfg.dropout = 0.0f;
  return cfg;
}

std::vector<text::Token> Toks(const std::string& s) {
  return text::Tokenizer().Tokenize(s);
}

TEST(MicroBertTest, EncodeShapes) {
  MicroBert model(TinyConfig(), 1);
  auto tokens = Toks("italy reports new cases");
  EncodeResult result = model.Encode(tokens);
  EXPECT_EQ(result.embeddings.rows(), 4u);
  EXPECT_EQ(result.embeddings.cols(), 16u);
  EXPECT_EQ(result.logits.rows(), 4u);
  EXPECT_EQ(result.logits.cols(), static_cast<size_t>(text::kNumBioLabels));
  EXPECT_EQ(result.bio_labels.size(), 4u);
}

TEST(MicroBertTest, EncodeMatchesTapeForwardBitForBit) {
  // Encode runs Forward under a NoGradScope; its outputs must equal the
  // autograd eval forward exactly (the same ops and kernels; see
  // DESIGN.md).
  MicroBert model(TinyConfig(), 11);
  for (const char* s : {"italy reports new cases", "x",
                        "the quick brown fox jumps over the lazy dog twice "
                        "and keeps running far beyond the window"}) {
    auto tokens = Toks(s);
    EncodeResult fast = model.Encode(tokens);
    Rng unused(0);
    auto tape = model.Forward(tokens, /*training=*/false, &unused);
    EXPECT_EQ(fast.embeddings, tape.embeddings.value()) << s;
    EXPECT_EQ(fast.logits, tape.logits.value()) << s;
  }
}

TEST(MicroBertTest, EncodeIsAllocationFreeOnceWarm) {
  // Steady-state contract: after one encode of the peak shape, repeat
  // encodes of same-or-smaller sentences never grow the thread's arena.
  MicroBert model(TinyConfig(), 12);
  auto long_tokens = Toks("one two three four five six seven eight nine ten");
  auto short_tokens = Toks("short sentence here");
  model.Encode(long_tokens);  // warm-up at peak shape
  common::ScratchArena& arena = common::ScratchArena::ThreadLocal();
  const uint64_t warm = arena.heap_allocs();
  for (int i = 0; i < 5; ++i) {
    model.Encode(long_tokens);
    model.Encode(short_tokens);
  }
  EXPECT_EQ(arena.heap_allocs(), warm);
}

// operator new calls of one steady-state Encode of `tokens`.
long NewCallsPerEncode(const MicroBert& model,
                       const std::vector<text::Token>& tokens) {
  for (int i = 0; i < 3; ++i) model.Encode(tokens);  // warm the arena
  const long before = t_new_calls;
  model.Encode(tokens);
  return t_new_calls - before;
}

TEST(MicroBertTest, EncodeHeapCallsDoNotDependOnLayersOrTokens) {
  // Activations live in the arena, so only the result's own buffers
  // (embeddings, logits, labels) reach the heap, whatever the depth and
  // sentence length. A forward on the tape allocates per op, so per layer.
  MicroBertConfig two_layer_config = TinyConfig();
  two_layer_config.num_layers = 2;
  MicroBert one_layer(TinyConfig(), 13);
  MicroBert two_layers(two_layer_config, 13);
  auto three = Toks("italy reports cases");
  auto ten = Toks("one two three four five six seven eight nine ten");
  const long base = NewCallsPerEncode(one_layer, three);
  EXPECT_EQ(NewCallsPerEncode(two_layers, three), base);
  EXPECT_EQ(NewCallsPerEncode(one_layer, ten), base);
  EXPECT_EQ(NewCallsPerEncode(two_layers, ten), base);
  EXPECT_LE(base, 3);
}

TEST(MicroBertTest, EncodeIsDeterministic) {
  MicroBert model(TinyConfig(), 2);
  auto tokens = Toks("the coronavirus is spreading");
  auto a = model.Encode(tokens);
  auto b = model.Encode(tokens);
  EXPECT_EQ(a.embeddings, b.embeddings);
  EXPECT_EQ(a.bio_labels, b.bio_labels);
}

TEST(MicroBertTest, TruncatesLongSentences) {
  MicroBert model(TinyConfig(), 3);
  std::string long_text;
  for (int i = 0; i < 30; ++i) long_text += "word" + std::to_string(i) + " ";
  auto tokens = Toks(long_text);
  ASSERT_GT(tokens.size(), 16u);
  auto result = model.Encode(tokens);
  EXPECT_EQ(result.embeddings.rows(), 16u);               // truncated
  EXPECT_EQ(result.bio_labels.size(), tokens.size());     // padded with O
  for (size_t t = 16; t < tokens.size(); ++t) {
    EXPECT_EQ(result.bio_labels[t], text::kBioOutside);
  }
}

TEST(MicroBertTest, ContextChangesEmbedding) {
  // The same word in different contexts must get different contextual
  // embeddings (that is the whole point of the encoder).
  MicroBert model(TinyConfig(), 4);
  auto a = model.Encode(Toks("washington announced a lockdown"));
  auto b = model.Encode(Toks("protests erupt in washington today"));
  // "washington" is token 0 in a, token 3 in b.
  Matrix ea = a.embeddings.SliceRows(0, 1);
  Matrix eb = b.embeddings.SliceRows(3, 1);
  EXPECT_GT(CosineDistance(ea, eb), 1e-3f);
}

TEST(MicroBertTest, TokenKindInfluencesRepresentation) {
  // The same surface text as a word vs as a hashtag (same match form) must
  // produce different input embeddings via the token-kind table.
  MicroBert model(TinyConfig(), 30);
  auto word_tokens = Toks("covid is here");
  auto hash_tokens = Toks("#covid is here");
  ASSERT_EQ(word_tokens[0].match, hash_tokens[0].match);
  ASSERT_NE(word_tokens[0].kind, hash_tokens[0].kind);
  auto a = model.Encode(word_tokens);
  auto b = model.Encode(hash_tokens);
  Matrix ea = a.embeddings.SliceRows(0, 1);
  Matrix eb = b.embeddings.SliceRows(0, 1);
  EXPECT_GT(CosineDistance(ea, eb), 1e-4f);
}

TEST(MicroBertTest, ParameterCountConsistent) {
  MicroBert model(TinyConfig(), 5);
  EXPECT_GT(model.NumParameters(), 1000u);
  EXPECT_EQ(model.Parameters().size(),
            MicroBert(TinyConfig(), 6).Parameters().size());
}

std::vector<std::vector<text::Token>> ManyCorpus() {
  std::vector<std::vector<text::Token>> corpus;
  for (const char* s :
       {"italy reports new cases", "washington announced a lockdown",
        "x", "protests erupt in washington today", "stay home and stay safe",
        "the quick brown fox jumps over the lazy dog twice and keeps "
        "running far beyond the window",
        "#covid is trending", "hospitals are full this week"}) {
    corpus.push_back(Toks(s));
  }
  return corpus;
}

void ExpectSameResult(const EncodeResult& a, const EncodeResult& b,
                      size_t index) {
  EXPECT_EQ(a.embeddings, b.embeddings) << "sentence " << index;
  EXPECT_EQ(a.logits, b.logits) << "sentence " << index;
  EXPECT_EQ(a.bio_labels, b.bio_labels) << "sentence " << index;
}

TEST(EncodeManyTest, MatchesPerSentenceEncodeBitwise) {
  // The batch-composition-independence contract: EncodeMany must equal a
  // per-sentence Encode loop bit for bit — this is what lets a driver
  // encode a batch apart from the pipeline without perturbing any stream.
  MicroBert model(TinyConfig(), 40);
  const auto corpus = ManyCorpus();
  std::vector<const std::vector<text::Token>*> sentences;
  for (const auto& s : corpus) sentences.push_back(&s);
  const auto batched = model.EncodeMany(sentences);
  ASSERT_EQ(batched.size(), corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    ExpectSameResult(batched[i], model.Encode(corpus[i]), i);
  }
}

TEST(EncodeManyTest, PartitionInvariant) {
  // Any way of splitting the sentence list into EncodeMany calls yields
  // the same bits per sentence: all-at-once vs every split point vs
  // one-call-per-sentence.
  MicroBert model(TinyConfig(), 41);
  const auto corpus = ManyCorpus();
  std::vector<const std::vector<text::Token>*> sentences;
  for (const auto& s : corpus) sentences.push_back(&s);
  const auto whole = model.EncodeMany(sentences);
  for (size_t split = 0; split <= corpus.size(); ++split) {
    const auto head = model.EncodeMany(
        {sentences.begin(), sentences.begin() + split});
    const auto tail = model.EncodeMany(
        {sentences.begin() + split, sentences.end()});
    for (size_t i = 0; i < split; ++i) {
      ExpectSameResult(head[i], whole[i], i);
    }
    for (size_t i = split; i < corpus.size(); ++i) {
      ExpectSameResult(tail[i - split], whole[i], i);
    }
  }
}

TEST(EncodeManyTest, PermutationInvariant) {
  // Reordering the batch only reorders the results; each sentence's bits
  // are unchanged by its neighbors.
  MicroBert model(TinyConfig(), 42);
  const auto corpus = ManyCorpus();
  std::vector<const std::vector<text::Token>*> sentences;
  for (const auto& s : corpus) sentences.push_back(&s);
  const auto forward = model.EncodeMany(sentences);
  std::vector<const std::vector<text::Token>*> reversed(sentences.rbegin(),
                                                        sentences.rend());
  const auto backward = model.EncodeMany(reversed);
  ASSERT_EQ(backward.size(), forward.size());
  for (size_t i = 0; i < forward.size(); ++i) {
    ExpectSameResult(backward[forward.size() - 1 - i], forward[i], i);
  }
}

TEST(EncodeManyTest, NullAndEmptySentencesYieldDefaultResults) {
  MicroBert model(TinyConfig(), 43);
  const std::vector<text::Token> empty;
  const auto tokens = Toks("italy reports new cases");
  const auto results = model.EncodeMany({nullptr, &empty, &tokens});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].bio_labels.size(), 0u);
  EXPECT_EQ(results[0].embeddings.rows(), 0u);
  EXPECT_EQ(results[1].bio_labels.size(), 0u);
  ExpectSameResult(results[2], model.Encode(tokens), 2);
}

/// A duplication-heavy batch in the two shapes the serve layer produces:
/// aliased pointers (several slots share one sentence object, as when one
/// retweet fans out within a session's batch) and distinct-but-equal
/// copies (equal token vectors owned by different sessions, as when one
/// retweet reaches several streams). Returns pointers into `corpus`/`copies`.
std::vector<const std::vector<text::Token>*> DuplicatedBatch(
    const std::vector<std::vector<text::Token>>& corpus,
    std::vector<std::vector<text::Token>>* copies) {
  copies->clear();
  copies->reserve(corpus.size());  // no reallocation: pointers stay valid
  std::vector<const std::vector<text::Token>*> sentences;
  for (size_t i = 0; i < corpus.size(); ++i) {
    sentences.push_back(&corpus[i]);
    sentences.push_back(&corpus[i]);  // aliased duplicate
    copies->push_back(corpus[i]);
    sentences.push_back(&copies->back());  // equal-but-distinct duplicate
  }
  return sentences;
}

TEST(EncodeManyTest, DedupMatchesReferencePathBitwise) {
  // Intra-batch dedup (the default) encodes each distinct sentence once
  // and fans copies out; every slot must equal the no-dedup reference
  // path — and a plain per-sentence Encode — bit for bit.
  MicroBert model(TinyConfig(), 44);
  const auto corpus = ManyCorpus();
  std::vector<std::vector<text::Token>> copies;
  const auto sentences = DuplicatedBatch(corpus, &copies);
  EncodeOptions reference;
  reference.dedup = false;
  reference.use_cache = false;
  const auto expected = model.EncodeMany(sentences, reference);
  const auto deduped = model.EncodeMany(sentences);
  ASSERT_EQ(deduped.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ExpectSameResult(deduped[i], expected[i], i);
    ExpectSameResult(deduped[i], model.Encode(*sentences[i]), i);
  }
}

TEST(EncodeManyTest, DedupPartitionInvariant) {
  // Splitting a duplicate-laden batch at any point changes which slots
  // share a representative (duplicates split across calls are encoded
  // independently) but never the bits.
  MicroBert model(TinyConfig(), 45);
  const auto corpus = ManyCorpus();
  std::vector<std::vector<text::Token>> copies;
  const auto sentences = DuplicatedBatch(corpus, &copies);
  const auto whole = model.EncodeMany(sentences);
  for (size_t split = 0; split <= sentences.size(); ++split) {
    const auto head = model.EncodeMany(
        {sentences.begin(), sentences.begin() + split});
    const auto tail = model.EncodeMany(
        {sentences.begin() + split, sentences.end()});
    for (size_t i = 0; i < split; ++i) {
      ExpectSameResult(head[i], whole[i], i);
    }
    for (size_t i = split; i < sentences.size(); ++i) {
      ExpectSameResult(tail[i - split], whole[i], i);
    }
  }
}

TEST(EncodeManyTest, DedupPermutationInvariant) {
  // Reversing the batch changes every representative election (the last
  // duplicate becomes the first occurrence) yet the bits per slot are
  // unchanged.
  MicroBert model(TinyConfig(), 46);
  const auto corpus = ManyCorpus();
  std::vector<std::vector<text::Token>> copies;
  const auto sentences = DuplicatedBatch(corpus, &copies);
  const auto forward = model.EncodeMany(sentences);
  std::vector<const std::vector<text::Token>*> reversed(sentences.rbegin(),
                                                        sentences.rend());
  const auto backward = model.EncodeMany(reversed);
  ASSERT_EQ(backward.size(), forward.size());
  for (size_t i = 0; i < forward.size(); ++i) {
    ExpectSameResult(backward[forward.size() - 1 - i], forward[i], i);
  }
}

TEST(EncodeManyTest, DedupHandlesNullAndEmptyAmongDuplicates) {
  MicroBert model(TinyConfig(), 47);
  const std::vector<text::Token> empty;
  const auto tokens = Toks("italy reports new cases");
  const auto results =
      model.EncodeMany({nullptr, &tokens, &empty, &tokens, nullptr});
  ASSERT_EQ(results.size(), 5u);
  EXPECT_EQ(results[0].bio_labels.size(), 0u);
  EXPECT_EQ(results[2].bio_labels.size(), 0u);
  EXPECT_EQ(results[4].bio_labels.size(), 0u);
  ExpectSameResult(results[1], model.Encode(tokens), 1);
  ExpectSameResult(results[3], model.Encode(tokens), 3);
}

TEST(FineTuneTest, LearnsTinyCorpus) {
  // A toy task: "alpha" is always PER, "betaville" always LOC. After
  // fine-tuning, the model must tag both correctly in held-out contexts.
  MicroBert model(TinyConfig(), 7);
  std::vector<LabeledSentence> train;
  const std::vector<std::string> per_ctx = {
      "alpha says hello", "we saw alpha today", "alpha is speaking now",
      "big day for alpha", "alpha won again"};
  const std::vector<std::string> loc_ctx = {
      "we live in betaville", "betaville is cold", "go to betaville now",
      "betaville reports snow", "flights to betaville stopped"};
  for (const auto& s : per_ctx) {
    LabeledSentence ex;
    ex.tokens = Toks(s);
    ex.bio.assign(ex.tokens.size(), text::kBioOutside);
    for (size_t t = 0; t < ex.tokens.size(); ++t) {
      if (ex.tokens[t].match == "alpha") {
        ex.bio[t] = text::BioBeginLabel(text::EntityType::kPerson);
      }
    }
    train.push_back(ex);
  }
  for (const auto& s : loc_ctx) {
    LabeledSentence ex;
    ex.tokens = Toks(s);
    ex.bio.assign(ex.tokens.size(), text::kBioOutside);
    for (size_t t = 0; t < ex.tokens.size(); ++t) {
      if (ex.tokens[t].match == "betaville") {
        ex.bio[t] = text::BioBeginLabel(text::EntityType::kLocation);
      }
    }
    train.push_back(ex);
  }

  FineTuneOptions options;
  options.epochs = 30;
  options.batch_size = 4;
  options.lr = 3e-3f;
  const double final_loss = FineTuneForNer(&model, train, options);
  EXPECT_LT(final_loss, 0.5);

  auto result = model.Encode(Toks("alpha visits betaville"));
  EXPECT_EQ(result.bio_labels[0], text::BioBeginLabel(text::EntityType::kPerson));
  EXPECT_EQ(result.bio_labels[2], text::BioBeginLabel(text::EntityType::kLocation));
}

TEST(PretrainMlmTest, LossDecreasesOnSmallCorpus) {
  MicroBert model(TinyConfig(), 21);
  std::vector<std::vector<text::Token>> corpus;
  for (const char* s :
       {"the virus is spreading fast", "stay home and stay safe",
        "the virus is everywhere now", "cases are rising fast again",
        "hospitals are full this week", "stay safe out there friends"}) {
    corpus.push_back(Toks(s));
  }
  PretrainOptions short_run;
  short_run.epochs = 1;
  const double first = PretrainMlm(&model, corpus, short_run);
  PretrainOptions longer;
  longer.epochs = 25;
  const double later = PretrainMlm(&model, corpus, longer);
  EXPECT_LT(later, first);
}

TEST(PretrainMlmTest, PretrainingChangesEncoderParameters) {
  MicroBert model(TinyConfig(), 22);
  const Matrix before = model.Parameters()[0].value();
  std::vector<std::vector<text::Token>> corpus = {
      Toks("alpha beta gamma delta"), Toks("beta gamma delta epsilon")};
  PretrainOptions opt;
  opt.epochs = 3;
  PretrainMlm(&model, corpus, opt);
  EXPECT_FALSE(model.Parameters()[0].value() == before);
}

TEST(FineTuneTest, LossDecreases) {
  MicroBert model(TinyConfig(), 8);
  std::vector<LabeledSentence> train;
  LabeledSentence ex;
  ex.tokens = Toks("gamma is trending");
  ex.bio = {text::BioBeginLabel(text::EntityType::kMisc), 0, 0};
  train.push_back(ex);

  FineTuneOptions one_epoch;
  one_epoch.epochs = 1;
  one_epoch.batch_size = 1;
  const double first = FineTuneForNer(&model, train, one_epoch);
  FineTuneOptions more;
  more.epochs = 20;
  more.batch_size = 1;
  const double later = FineTuneForNer(&model, train, more);
  EXPECT_LT(later, first);
}

}  // namespace
}  // namespace nerglob::lm
