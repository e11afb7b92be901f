// StreamState checkpoints hold only what cannot be recomputed: mention
// phrase embeddings are a pure function of the stored token embeddings and
// the PhraseEmbedder, so Save omits them and Load recomputes them.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "core/phrase_embedder.h"
#include "core/stream_state.h"
#include "io/tensor_io.h"
#include "text/tokenizer.h"

namespace nerglob::core {
namespace {

constexpr size_t kDim = 8;

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

Status SaveTo(const StreamState& state, const std::string& path) {
  io::TensorWriter writer(path);
  NERGLOB_RETURN_IF_ERROR(state.Save(&writer));
  return writer.Finish();
}

Status LoadFrom(const std::string& path, const PhraseEmbedder& embedder,
                StreamState* state) {
  io::TensorReader reader(path);
  return state->Load(&reader, embedder);
}

/// Three four-token sentences with random token embeddings.
StreamState MakeState(Rng* rng) {
  StreamState state;
  for (int64_t id = 1; id <= 3; ++id) {
    stream::SentenceRecord rec;
    rec.message.id = id;
    rec.message.text = "alpha beta gamma delta";
    rec.message.tokens = text::Tokenizer().Tokenize(rec.message.text);
    rec.token_embeddings = Matrix::Randn(4, kDim, 1.0f, rng);
    rec.local_bio.assign(4, 0);
    state.tweet_base.Put(std::move(rec));
  }
  return state;
}

/// Adds a mention whose embedding is the embedder's output, or `fill`
/// everywhere when `fill` is non-negative.
void AddMention(StreamState* state, const PhraseEmbedder& embedder,
                const std::string& surface, int64_t id, size_t begin,
                size_t end, float fill = -1.0f) {
  stream::MentionRecord m;
  m.message_id = id;
  m.begin_token = begin;
  m.end_token = end;
  if (fill >= 0.0f) {
    m.local_embedding = Matrix(1, kDim, fill);
  } else {
    m.local_embedding = embedder.Embed(
        state->tweet_base.Find(id)->token_embeddings, begin, end);
  }
  state->candidate_base.AddMention(surface, std::move(m));
}

void AddPool(StreamState* state, const PhraseEmbedder& embedder,
             float fill = -1.0f) {
  AddMention(state, embedder, "beta gamma", 1, 1, 3, fill);
  AddMention(state, embedder, "beta gamma", 3, 1, 3, fill);
  AddMention(state, embedder, "alpha", 2, 0, 1, fill);
  std::vector<stream::CandidateEntry> cands(1);
  cands[0].surface = "beta gamma";
  cands[0].mention_ids = {0, 1};
  cands[0].is_entity = true;
  cands[0].type = text::EntityType::kLocation;
  cands[0].confidence = 0.75f;
  state->candidate_base.SetCandidates("beta gamma", cands);
  state->seed_support["beta gamma"] = 2;
}

TEST(StreamStateTest, SaveWritesNoPhraseEmbeddings) {
  // Two states that differ only in their mention embeddings must write the
  // same bytes: the checkpoint holds no phrase embedding at all.
  Rng rng(3), state_rng_a(11), state_rng_b(11);
  PhraseEmbedder embedder(kDim, &rng);
  StreamState computed = MakeState(&state_rng_a);
  AddPool(&computed, embedder);
  StreamState constant = MakeState(&state_rng_b);
  AddPool(&constant, embedder, /*fill=*/0.5f);

  const std::string a = TempPath("state_computed.bin");
  const std::string b = TempPath("state_constant.bin");
  ASSERT_TRUE(SaveTo(computed, a).ok());
  ASSERT_TRUE(SaveTo(constant, b).ok());
  EXPECT_EQ(ReadBytes(a), ReadBytes(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(StreamStateTest, LoadRecomputesPhraseEmbeddingsBitwise) {
  Rng rng(3), state_rng(11);
  PhraseEmbedder embedder(kDim, &rng);
  StreamState state = MakeState(&state_rng);
  AddPool(&state, embedder);

  const std::string path = TempPath("state_roundtrip.bin");
  ASSERT_TRUE(SaveTo(state, path).ok());
  StreamState restored;
  ASSERT_TRUE(LoadFrom(path, embedder, &restored).ok());

  ASSERT_EQ(restored.candidate_base.surfaces(), state.candidate_base.surfaces());
  for (const std::string& surface : state.candidate_base.surfaces()) {
    const auto& want = state.candidate_base.Mentions(surface);
    const auto& got = restored.candidate_base.Mentions(surface);
    ASSERT_EQ(got.size(), want.size()) << surface;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].message_id, want[i].message_id);
      ASSERT_EQ(got[i].local_embedding.size(), kDim);
      EXPECT_EQ(std::memcmp(got[i].local_embedding.data(),
                            want[i].local_embedding.data(),
                            kDim * sizeof(float)),
                0)
          << surface << " mention " << i;
    }
    const auto& got_cands = restored.candidate_base.Candidates(surface);
    const auto& want_cands = state.candidate_base.Candidates(surface);
    ASSERT_EQ(got_cands.size(), want_cands.size());
    for (size_t c = 0; c < want_cands.size(); ++c) {
      EXPECT_EQ(got_cands[c].mention_ids, want_cands[c].mention_ids);
      EXPECT_EQ(got_cands[c].type, want_cands[c].type);
      EXPECT_EQ(got_cands[c].confidence, want_cands[c].confidence);
    }
  }
  EXPECT_EQ(restored.seed_support, state.seed_support);

  // Saving the restored state writes the same bytes again.
  const std::string again = TempPath("state_roundtrip_again.bin");
  ASSERT_TRUE(SaveTo(restored, again).ok());
  EXPECT_EQ(ReadBytes(again), ReadBytes(path));
  std::remove(path.c_str());
  std::remove(again.c_str());
}

/// Saves `state`, then expects Load to fail with InvalidArgument and to
/// leave a previously loaded target untouched.
void ExpectLoadRejects(const StreamState& state, const PhraseEmbedder& embedder,
                       const std::string& name) {
  const std::string path = TempPath(name);
  ASSERT_TRUE(SaveTo(state, path).ok());
  Rng target_rng(5);
  StreamState target = MakeState(&target_rng);
  const Status st = LoadFrom(path, embedder, &target);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_EQ(target.tweet_base.size(), 3u);  // untouched by the failed load
  EXPECT_EQ(target.candidate_base.TotalMentions(), 0u);
  std::remove(path.c_str());
}

TEST(StreamStateTest, LoadRejectsMentionOfAbsentMessage) {
  // A crafted checkpoint whose pool names a message the TweetBase does not
  // hold gets a typed error, not a crash when the pool is read later.
  Rng rng(3), state_rng(11);
  PhraseEmbedder embedder(kDim, &rng);
  StreamState state = MakeState(&state_rng);
  stream::MentionRecord m;
  m.message_id = 99;
  m.begin_token = 0;
  m.end_token = 1;
  state.candidate_base.AddMention("alpha", m);
  ExpectLoadRejects(state, embedder, "state_absent_message.bin");
}

TEST(StreamStateTest, LoadRejectsMentionPastItsSentence) {
  Rng rng(3), state_rng(11);
  PhraseEmbedder embedder(kDim, &rng);
  for (const auto& [begin, end] :
       {std::pair<size_t, size_t>{2, 9}, {4, 5}, {2, 2}}) {
    StreamState state = MakeState(&state_rng);
    stream::MentionRecord m;
    m.message_id = 2;
    m.begin_token = begin;
    m.end_token = end;
    state.candidate_base.AddMention("gamma", m);
    ExpectLoadRejects(state, embedder, "state_bad_span.bin");
  }
}

TEST(StreamStateTest, LoadRejectsDuplicateSurface) {
  // Two pools for one surface would leave surfaces() naming it twice.
  Rng rng(3), state_rng(11);
  PhraseEmbedder embedder(kDim, &rng);
  const StreamState state = MakeState(&state_rng);
  const std::string path = TempPath("state_duplicate_surface.bin");
  {
    io::TensorWriter writer(path);
    ASSERT_TRUE(state.tweet_base.Save(&writer).ok());
    writer.PutU64(2);
    for (int i = 0; i < 2; ++i) {
      writer.PutString("alpha");
      writer.PutU64(0);  // mentions
      writer.PutU64(0);  // candidates
    }
    ASSERT_TRUE(writer.EndRecord(io::kTagCandidateBase).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  StreamState target;
  const Status st = LoadFrom(path, embedder, &target);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_EQ(target.tweet_base.size(), 0u);
  std::remove(path.c_str());
}

TEST(StreamStateTest, LoadRejectsTokenEmbeddingsOfTheWrongWidth) {
  // The embedder CHECKs its input width; a checkpoint from another model
  // width must fail before reaching it.
  Rng rng(3), state_rng(11);
  PhraseEmbedder embedder(kDim, &rng);
  PhraseEmbedder wider(2 * kDim, &rng);
  StreamState state = MakeState(&state_rng);
  AddPool(&state, embedder);
  ExpectLoadRejects(state, wider, "state_wrong_width.bin");
}

}  // namespace
}  // namespace nerglob::core
