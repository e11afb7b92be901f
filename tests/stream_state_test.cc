// StreamState checkpoints hold only what cannot be recomputed: a
// message's tokens are the tokenizer's output for its text, token
// embeddings and BIO labels a pure function of the encoder and those
// tokens, the trie and the seed support of the live BIO labels, and the
// mention pools of the tokens, the trie, the token embeddings and the
// PhraseEmbedder, so Save omits them and Load recomputes them.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "artifact_records.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "core/local_ner.h"
#include "core/phrase_embedder.h"
#include "core/stages.h"
#include "core/stream_state.h"
#include "harness/experiment.h"
#include "io/tensor_io.h"
#include "lm/micro_bert.h"
#include "text/tokenizer.h"

namespace nerglob::core {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

using test_util::ReadBytes;

Status SaveTo(const StreamState& state, const std::string& path) {
  io::TensorWriter writer(path);
  NERGLOB_RETURN_IF_ERROR(state.Save(&writer));
  return writer.Finish();
}

bool SameBytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Records carry real encoder output from the tiny test model; the encoder
// needs no training for that, only fixed parameters.
class StreamStateTest : public ::testing::Test {
 protected:
  StreamStateTest()
      : model_(harness::TinyTestOptions().lm_config, /*seed=*/7),
        embedder_(model_.config().d_model, &rng_) {}

  size_t dim() const { return model_.config().d_model; }

  Status LoadFrom(const std::string& path, StreamState* state,
                  size_t encode_batch_size = 2) const {
    NerGlobalizerConfig config;
    config.process_batch_size = encode_batch_size;
    io::TensorReader reader(path);
    return state->Load(&reader, model_, embedder_, config);
  }

  void Put(StreamState* state, int64_t id, const std::string& text) const {
    stream::SentenceRecord rec;
    rec.message.id = id;
    rec.message.text = text;
    rec.message.tokens = text::Tokenizer().Tokenize(text);
    lm::EncodeResult encoded = model_.Encode(rec.message.tokens);
    rec.token_embeddings = std::move(encoded.embeddings);
    rec.local_bio = std::move(encoded.bio_labels);
    state->tweet_base.Put(std::move(rec));
  }

  /// Three encoded sentences of four tokens each.
  StreamState MakeState() const {
    StreamState state;
    Put(&state, 1, "alpha beta gamma delta");
    Put(&state, 2, "alpha visits gamma city");
    Put(&state, 3, "beta gamma and delta");
    return state;
  }

  /// Seeds the trie from every record's local spans and extracts the
  /// pools, as ingest and restore do.
  void Extract(StreamState* state) const {
    for (int64_t id : state->tweet_base.ids()) {
      state->SeedLocalSpans(*state->tweet_base.Find(id), nullptr);
    }
    stages::ReExtractMentions(embedder_, trie::CandidateTrie::kDefaultMaxSpan,
                              state->tweet_base.ids(), *state);
  }

  Rng rng_{3};
  lm::MicroBert model_;
  PhraseEmbedder embedder_;
};

TEST_F(StreamStateTest, SaveWritesNoPhraseEmbeddings) {
  // Two states that differ only in their mention pools must write the
  // same bytes: the checkpoint holds no pool, so no phrase embedding.
  StreamState computed = MakeState();
  Extract(&computed);
  ASSERT_GT(computed.candidate_base.TotalMentions(), 0u);
  StreamState constant = MakeState();
  stream::MentionRecord m;
  m.message_id = 2;
  m.end_token = 1;
  m.local_embedding = Matrix(1, dim(), 0.5f);
  constant.candidate_base.AddMentions("alpha", {m});

  const std::string a = TempPath("state_computed.bin");
  const std::string b = TempPath("state_constant.bin");
  ASSERT_TRUE(SaveTo(computed, a).ok());
  ASSERT_TRUE(SaveTo(constant, b).ok());
  EXPECT_EQ(ReadBytes(a), ReadBytes(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST_F(StreamStateTest, SaveWritesNoTokenEmbeddings) {
  // Two states that differ only in their token embeddings and BIO labels
  // must write the same bytes: the checkpoint holds messages only.
  StreamState encoded = MakeState();
  Extract(&encoded);
  StreamState blank = MakeState();
  for (int64_t id : blank.tweet_base.ids()) {
    stream::SentenceRecord* rec = blank.tweet_base.FindMutable(id);
    rec->token_embeddings = Matrix(1, 2 * dim(), 0.25f);
    rec->local_bio.assign(rec->local_bio.size() + 1, 1);
  }

  const std::string a = TempPath("state_encoded.bin");
  const std::string b = TempPath("state_blank.bin");
  ASSERT_TRUE(SaveTo(encoded, a).ok());
  ASSERT_TRUE(SaveTo(blank, b).ok());
  EXPECT_EQ(ReadBytes(a), ReadBytes(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST_F(StreamStateTest, LoadRecomputesPhraseEmbeddingsBitwise) {
  // Restore re-extracts the pools from the re-encoded window: the same
  // surfaces, each pool's spans in the same order, bit-identical
  // embeddings.
  StreamState state = MakeState();
  Extract(&state);
  ASSERT_GT(state.candidate_base.TotalMentions(), 0u);
  const std::string path = TempPath("state_roundtrip.bin");
  ASSERT_TRUE(SaveTo(state, path).ok());

  // Any encode chunk size re-encodes the same bytes.
  for (const size_t chunk : {1u, 2u, 256u}) {
    StreamState restored;
    ASSERT_TRUE(LoadFrom(path, &restored, chunk).ok());

    ASSERT_EQ(restored.tweet_base.ids(), state.tweet_base.ids());
    for (int64_t id : state.tweet_base.ids()) {
      const stream::SentenceRecord* want = state.tweet_base.Find(id);
      const stream::SentenceRecord* got = restored.tweet_base.Find(id);
      EXPECT_TRUE(SameBytes(got->token_embeddings, want->token_embeddings))
          << "message " << id << " chunk " << chunk;
      EXPECT_EQ(got->local_bio, want->local_bio) << "message " << id;
    }
    ASSERT_EQ(restored.candidate_base.surfaces(),
              state.candidate_base.surfaces());
    for (const std::string& surface : state.candidate_base.surfaces()) {
      const auto& want = state.candidate_base.Mentions(surface);
      const auto& got = restored.candidate_base.Mentions(surface);
      ASSERT_EQ(got.size(), want.size()) << surface;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].message_id, want[i].message_id);
        EXPECT_EQ(got[i].begin_token, want[i].begin_token);
        EXPECT_EQ(got[i].end_token, want[i].end_token);
        EXPECT_TRUE(SameBytes(got[i].local_embedding, want[i].local_embedding))
            << surface << " mention " << i << " chunk " << chunk;
      }
    }
    // The trie and the seed support come back as the live window's local
    // spans: one form per distinct span, one unit of support per span.
    std::set<std::vector<std::string>> want_forms;
    std::unordered_map<std::string, int> want_support;
    for (int64_t id : state.tweet_base.ids()) {
      const stream::SentenceRecord* rec = state.tweet_base.Find(id);
      for (const text::EntitySpan& span : text::DecodeBio(rec->local_bio)) {
        want_forms.insert(
            SpanMatchTokens(rec->message, span.begin_token, span.end_token));
        ++want_support[SpanSurfaceString(rec->message, span.begin_token,
                                         span.end_token)];
      }
    }
    EXPECT_EQ(restored.trie.Forms(),
              std::vector<std::vector<std::string>>(want_forms.begin(),
                                                    want_forms.end()));
    EXPECT_EQ(restored.seed_support, want_support);

    // Saving the restored state writes the same bytes again.
    const std::string again = TempPath("state_roundtrip_again.bin");
    ASSERT_TRUE(SaveTo(restored, again).ok());
    EXPECT_EQ(ReadBytes(again), ReadBytes(path));
    std::remove(again.c_str());
  }
  std::remove(path.c_str());
}

TEST_F(StreamStateTest, ExtractionPoolsOnlyMatchesThatStartInTheEncodedPrefix) {
  // The encoder keeps the first max_seq_len tokens of a sentence. A match
  // that starts inside that prefix is pooled over the part it keeps; one
  // that starts past it has no token embedding to pool and is skipped.
  // Restore extracts through the same operation.
  const size_t max_len = model_.config().max_seq_len;
  std::string text = "alpha";
  for (size_t t = 1; t < max_len + 3; ++t) text += " beta";
  StreamState state;
  Put(&state, 4, text);
  ASSERT_EQ(state.tweet_base.Find(4)->token_embeddings.rows(), max_len);
  state.trie.Insert({"alpha"});
  state.trie.Insert({"beta", "beta"});
  stages::ReExtractMentions(embedder_, trie::CandidateTrie::kDefaultMaxSpan,
                            {4}, state);
  // Greedy pairs start at tokens 1, 3, 5, ...; the last one in the prefix
  // starts at max_len - 1 or max_len - 2.
  const auto& pairs = state.candidate_base.Mentions("beta beta");
  ASSERT_FALSE(pairs.empty());
  EXPECT_LT(pairs.back().begin_token, max_len);
  EXPECT_GE(pairs.back().begin_token + 2, max_len);
  for (const stream::MentionRecord& m : pairs) {
    EXPECT_EQ(m.local_embedding.size(), dim());
  }
  EXPECT_EQ(state.candidate_base.Mentions("alpha").size(), 1u);
}

/// Writes one message in the layout-4 canonical form: its tokens are the
/// tokenizer's output for its text.
void PutCanonicalMessage(io::TensorWriter* writer, int64_t id,
                         const std::string& text) {
  writer->PutVarint(io::ZigZag(id));
  writer->PutString(text);
  writer->PutVarint(io::ZigZag(0));  // topic
  writer->PutVarint(0);              // tokens: re-derived from the text
  writer->PutVarint(0);              // gold spans
}

TEST_F(StreamStateTest, LoadRejectsDuplicateMessageId) {
  // TweetBase::Put replaces a record with the same id, so a record naming
  // an id twice would restore one message fewer than it counts.
  const std::string path = TempPath("state_duplicate_id.bin");
  {
    io::TensorWriter writer(path);
    writer.PutVarint(2);
    PutCanonicalMessage(&writer, 5, "alpha beta");
    PutCanonicalMessage(&writer, 5, "gamma delta");
    ASSERT_TRUE(writer.EndRecord(io::kTagTweetBase).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  StreamState target = MakeState();
  const Status st = LoadFrom(path, &target);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("duplicate message id"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(target.tweet_base.size(), 3u);
  std::remove(path.c_str());
}

TEST_F(StreamStateTest, SaveWritesNoDerivedTokens) {
  // A message whose tokens are the tokenizer's output is stored as its id,
  // text, topic, a zero token field and its spans: no per-token byte.
  StreamState state;
  Put(&state, -3, "alpha visits #gamma city at https://t.co/x :)");
  const std::string path = TempPath("state_canonical.bin");
  ASSERT_TRUE(SaveTo(state, path).ok());
  io::TensorReader reader(path);
  ASSERT_TRUE(reader.NextRecord(io::kTagTweetBase).ok());
  uint64_t count = 0, id = 0, topic = 0, token_field = 1, spans = 1;
  std::string text;
  ASSERT_TRUE(reader.GetVarint(&count) && reader.GetVarint(&id) &&
              reader.GetString(&text) && reader.GetVarint(&topic) &&
              reader.GetVarint(&token_field) && reader.GetVarint(&spans));
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(io::UnZigZag(id), -3);
  EXPECT_EQ(text, state.tweet_base.Find(-3)->message.text);
  EXPECT_EQ(token_field, 0u);
  EXPECT_EQ(spans, 0u);
  EXPECT_TRUE(reader.ExpectRecordEnd().ok());
  std::remove(path.c_str());
}

TEST_F(StreamStateTest, LoadRederivesCanonicalTokensWithoutSlack) {
  StreamState state = MakeState();
  Put(&state, 4, "#Alpha @beta gamma 2024 https://t.co/y don't :(");
  const std::string path = TempPath("state_rederived.bin");
  ASSERT_TRUE(SaveTo(state, path).ok());
  StreamState restored;
  ASSERT_TRUE(LoadFrom(path, &restored).ok());
  for (int64_t id : state.tweet_base.ids()) {
    const auto& want = state.tweet_base.Find(id)->message.tokens;
    const auto& got = restored.tweet_base.Find(id)->message.tokens;
    EXPECT_EQ(got, want) << "message " << id;
    // A restored window must weigh no more than the live one.
    EXPECT_EQ(got.capacity(), got.size()) << "message " << id;
  }
  std::remove(path.c_str());
}

/// A message whose tokens are not the tokenizer's output for its text.
stream::SentenceRecord ExplicitRecord(int64_t id, const std::string& text,
                                      std::vector<text::Token> tokens) {
  stream::SentenceRecord rec;
  rec.message.id = id;
  rec.message.text = text;
  rec.message.topic_id = -2;
  rec.message.tokens = std::move(tokens);
  rec.message.gold_spans = {{0, 1, text::EntityType::kLocation}};
  return rec;
}

/// A token spelt `surface` at byte `begin` of its message, matched as the
/// whole lowercased spelling (a hashtag keeps its '#').
text::Token MakeToken(const std::string& surface, uint32_t begin,
                      text::TokenKind kind = text::TokenKind::kWord) {
  text::Token tok;
  tok.match = ToLowerAscii(surface);
  tok.begin = begin;
  tok.end = begin + static_cast<uint32_t>(surface.size());
  tok.kind = kind;
  return tok;
}

TEST_F(StreamStateTest, ExplicitTokensRoundTripByteIdentically) {
  // Hand-built tokens (CoNLL-style data, tests) take the explicit path:
  // restore keeps them as written instead of re-tokenizing the text.
  StreamState state = MakeState();
  const std::string us_open = "U.S. open";
  std::vector<text::Token> us = {MakeToken("U.S.", 0), MakeToken("open", 5)};
  ASSERT_NE(text::Tokenizer().Tokenize(us_open), us);
  state.tweet_base.Put(ExplicitRecord(10, us_open, us));
  state.tweet_base.Put(ExplicitRecord(
      11, "hello #World",
      {MakeToken("hello", 0),
       MakeToken("#World", 6, text::TokenKind::kHashtag)}));

  metrics::SetEnabled(true);
  metrics::Counter* const explicit_messages =
      metrics::MetricsRegistry::Global().GetCounter(
          "checkpoint.explicit_token_messages_total");
  const uint64_t before = explicit_messages->value();
  const std::string path = TempPath("state_explicit.bin");
  ASSERT_TRUE(SaveTo(state, path).ok());
  EXPECT_EQ(explicit_messages->value() - before, 2u);
  metrics::SetEnabled(false);

  StreamState restored;
  ASSERT_TRUE(LoadFrom(path, &restored).ok());
  ASSERT_EQ(restored.tweet_base.ids(), state.tweet_base.ids());
  for (int64_t id : state.tweet_base.ids()) {
    const stream::Message& want = state.tweet_base.Find(id)->message;
    const stream::Message& got = restored.tweet_base.Find(id)->message;
    EXPECT_EQ(got.text, want.text) << "message " << id;
    EXPECT_EQ(got.topic_id, want.topic_id) << "message " << id;
    EXPECT_EQ(got.tokens, want.tokens) << "message " << id;
    for (const text::Token& tok : got.tokens) {
      EXPECT_EQ(ToLowerAscii(text::TokenText(got.text, tok)), tok.match)
          << "message " << id;
    }
    EXPECT_EQ(got.gold_spans, want.gold_spans) << "message " << id;
  }
  EXPECT_EQ(restored.tweet_base.Find(11)->token_embeddings.rows(), 2u);

  const std::string again = TempPath("state_explicit_again.bin");
  ASSERT_TRUE(SaveTo(restored, again).ok());
  EXPECT_EQ(ReadBytes(again), ReadBytes(path));
  std::remove(again.c_str());
  std::remove(path.c_str());
}

TEST_F(StreamStateTest, LoadRejectsExplicitTokenOffsetsOutsideTheText) {
  // A token's spelling is read from the message text through its offsets,
  // so a record whose offsets leave the text is refused as corrupt.
  const std::string us_open = "U.S. open";
  const std::string path = TempPath("state_offsets.bin");
  auto load_with = [&](text::Token last) {
    StreamState state = MakeState();
    state.tweet_base.Put(
        ExplicitRecord(10, us_open, {MakeToken("U.S.", 0), last}));
    EXPECT_TRUE(SaveTo(state, path).ok());
    StreamState restored;
    return LoadFrom(path, &restored);
  };
  // "open" ends exactly at the end of the text.
  EXPECT_TRUE(load_with(MakeToken("open", 5)).ok());
  const Status past_end = load_with(MakeToken("opens", 5));
  EXPECT_EQ(past_end.code(), StatusCode::kInvalidArgument)
      << past_end.ToString();
  EXPECT_NE(past_end.message().find("tweet-base"), std::string::npos)
      << past_end.ToString();
  text::Token reversed = MakeToken("open", 5);
  std::swap(reversed.begin, reversed.end);
  const Status backwards = load_with(reversed);
  EXPECT_EQ(backwards.code(), StatusCode::kInvalidArgument)
      << backwards.ToString();
  std::remove(path.c_str());
}

TEST_F(StreamStateTest, MutatedPayloadsLoadToATypedStatus) {
  // Deterministic mutational fuzz of the two state records. Each mutated
  // payload is re-framed with a valid checksum, so it reaches the parsers:
  // every one must come back as a Status (OK or a typed error), never a
  // crash. Run under the sanitizer build it also rules out memory errors.
  StreamState state = MakeState();
  // The last token's kind (kPunct) is one bit away from out of range.
  state.tweet_base.Put(ExplicitRecord(
      -7, "U.S. open!",
      {MakeToken("U.S.", 0), MakeToken("open", 5),
       MakeToken("!", 9, text::TokenKind::kPunct)}));
  state.finalized = {{-1, {{0, 2, text::EntityType::kPerson}}}};
  state.evicted_messages = 300;
  const std::string path = TempPath("state_fuzz.bin");
  ASSERT_TRUE(SaveTo(state, path).ok());
  const auto records = test_util::SplitRecords(ReadBytes(path));
  ASSERT_EQ(records.size(), 2u);
  {
    StreamState restored;
    ASSERT_TRUE(LoadFrom(path, &restored).ok());
  }

  size_t rejected = 0;
  auto load_mutated = [&](size_t r, const std::string& payload) {
    ASSERT_TRUE(test_util::WriteRecords(path, records, r, payload).ok());
    StreamState target;
    const Status st = LoadFrom(path, &target);
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
  // Every truncation of the tweet-base record drops a field, so at least
  // those mutants must have reached a parser and been refused.
  EXPECT_GE(rejected, records[0].second.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nerglob::core
