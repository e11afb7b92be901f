#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "stream/candidate_base.h"
#include "stream/message.h"
#include "stream/tweet_base.h"
#include "text/tokenizer.h"

namespace nerglob::stream {
namespace {

Message MakeMessage(int64_t id, const std::string& text) {
  Message m;
  m.id = id;
  m.text = text;
  return m;
}

TEST(StreamSourceTest, BatchesInOrder) {
  std::vector<Message> msgs;
  for (int i = 0; i < 7; ++i) msgs.push_back(MakeMessage(i, StrFormat("t%d", i)));
  StreamSource source(std::move(msgs), 3);
  EXPECT_EQ(source.num_messages(), 7u);

  ASSERT_TRUE(source.HasNext());
  auto b1 = source.NextBatch();
  ASSERT_EQ(b1.size(), 3u);
  EXPECT_EQ(b1[0].id, 0);
  auto b2 = source.NextBatch();
  ASSERT_EQ(b2.size(), 3u);
  EXPECT_EQ(b2[0].id, 3);
  auto b3 = source.NextBatch();
  ASSERT_EQ(b3.size(), 1u);  // short final batch
  EXPECT_EQ(b3[0].id, 6);
  EXPECT_FALSE(source.HasNext());
}

TEST(StreamSourceTest, SingleBatchCoversAll) {
  StreamSource source({MakeMessage(1, "a"), MakeMessage(2, "b")}, 100);
  auto batch = source.NextBatch();
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_FALSE(source.HasNext());
}

TEST(StreamSourceTest, ExhaustedSourceYieldsEmptyBatches) {
  StreamSource source({MakeMessage(1, "a")}, 4);
  EXPECT_EQ(source.NextBatch().size(), 1u);
  // The loop contract: an exhausted source returns empty batches forever
  // instead of failing.
  EXPECT_TRUE(source.NextBatch().empty());
  EXPECT_TRUE(source.NextBatch().empty());
  EXPECT_FALSE(source.HasNext());
}

TEST(StreamSourceTest, ResetReplaysTheStream) {
  std::vector<Message> msgs;
  for (int i = 0; i < 5; ++i) msgs.push_back(MakeMessage(i, StrFormat("t%d", i)));
  StreamSource source(std::move(msgs), 2);
  size_t first_pass = 0;
  while (true) {
    auto batch = source.NextBatch();
    if (batch.empty()) break;
    first_pass += batch.size();
  }
  EXPECT_EQ(first_pass, 5u);
  source.Reset();
  EXPECT_TRUE(source.HasNext());
  auto batch = source.NextBatch();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 0);  // back at the start, same order
}

TEST(StreamSourceTest, ExhaustedSourcePollsAreFreeAndResetReplaysIdentically) {
  // The contract re-polling drivers (serve::SessionManager, bench warm-up
  // loops) rely on, documented at StreamSource::NextBatch in stream.cc:
  // polling an exhausted source is O(1) and side-effect-free forever — a
  // driver that keeps polling can never spin on phantom work — and Reset()
  // replays the byte-identical batch sequence.
  std::vector<Message> msgs;
  for (int i = 0; i < 5; ++i) msgs.push_back(MakeMessage(i, StrFormat("t%d", i)));
  StreamSource source(std::move(msgs), 2);
  std::vector<std::vector<int64_t>> first_pass;
  while (true) {
    auto batch = source.NextBatch();
    if (batch.empty()) break;
    std::vector<int64_t> ids;
    for (const Message& m : batch) ids.push_back(m.id);
    first_pass.push_back(std::move(ids));
  }
  ASSERT_EQ(first_pass.size(), 3u);  // 2 + 2 + 1
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(source.NextBatch().empty());
    EXPECT_FALSE(source.HasNext());
  }
  source.Reset();
  for (const auto& want : first_pass) {
    auto batch = source.NextBatch();
    ASSERT_EQ(batch.size(), want.size());
    for (size_t j = 0; j < want.size(); ++j) EXPECT_EQ(batch[j].id, want[j]);
  }
  EXPECT_TRUE(source.NextBatch().empty());
}

TEST(TweetBaseTest, PutFindRoundTrip) {
  TweetBase base;
  SentenceRecord rec;
  rec.message = MakeMessage(42, "italy closes schools");
  rec.local_bio = {1, 0, 0};
  base.Put(rec);
  ASSERT_NE(base.Find(42), nullptr);
  EXPECT_EQ(base.Find(42)->message.text, "italy closes schools");
  EXPECT_EQ(base.Find(99), nullptr);
  EXPECT_EQ(base.size(), 1u);
}

TEST(TweetBaseTest, PutReplacesAndKeepsOrder) {
  TweetBase base;
  SentenceRecord a;
  a.message = MakeMessage(1, "first");
  SentenceRecord b;
  b.message = MakeMessage(2, "second");
  base.Put(a);
  base.Put(b);
  SentenceRecord a2;
  a2.message = MakeMessage(1, "updated");
  base.Put(a2);
  EXPECT_EQ(base.size(), 2u);
  EXPECT_EQ(base.Find(1)->message.text, "updated");
  ASSERT_EQ(base.ids().size(), 2u);
  EXPECT_EQ(base.ids()[0], 1);
  EXPECT_EQ(base.ids()[1], 2);
}

TEST(TweetBaseTest, MutableAccessUpdatesRecord) {
  TweetBase base;
  SentenceRecord rec;
  rec.message = MakeMessage(5, "x");
  base.Put(rec);
  base.FindMutable(5)->local_bio = {1};
  EXPECT_EQ(base.Find(5)->local_bio, std::vector<int>{1});
  EXPECT_EQ(base.FindMutable(6), nullptr);
}

TEST(TweetBaseTest, EvictOldestRetiresInArrivalOrder) {
  TweetBase base;
  for (int64_t id = 10; id < 15; ++id) {
    SentenceRecord rec;
    rec.message = MakeMessage(id, StrFormat("m%d", static_cast<int>(id)));
    base.Put(rec);
  }
  auto evicted = base.EvictOldest(2);
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted[0], 10);
  EXPECT_EQ(evicted[1], 11);
  EXPECT_EQ(base.size(), 3u);
  EXPECT_EQ(base.Find(10), nullptr);
  EXPECT_EQ(base.Find(11), nullptr);
  ASSERT_NE(base.Find(12), nullptr);
  // Remaining ids still oldest-first.
  ASSERT_EQ(base.ids().size(), 3u);
  EXPECT_EQ(base.ids()[0], 12);
  EXPECT_EQ(base.ids()[2], 14);
}

TEST(TweetBaseTest, MemoryUsageShrinksOnEviction) {
  TweetBase base;
  for (int64_t id = 0; id < 4; ++id) {
    SentenceRecord rec;
    rec.message = MakeMessage(id, "some message text with several tokens");
    base.Put(rec);
  }
  const size_t before = base.MemoryUsageBytes();
  EXPECT_GT(before, 0u);
  base.EvictOldest(2);
  EXPECT_LT(base.MemoryUsageBytes(), before);
}

TEST(TweetBaseTest, MemoryUsageCountsOnlyHeapStrings) {
  // Every token is at most 15 chars, so each match buffer lies inside
  // sizeof(Token); only the message text spills to the heap.
  TweetBase base;
  SentenceRecord rec;
  rec.message = MakeMessage(7, "italy closes every school in the north");
  rec.message.tokens = text::Tokenizer().Tokenize(rec.message.text);
  for (const text::Token& tok : rec.message.tokens) {
    ASSERT_LE(tok.match.size(), 15u)
        << text::TokenText(rec.message.text, tok);
  }
  ASSERT_GT(rec.message.text.capacity(), std::string().capacity());
  base.Put(rec);
  const Message& msg = base.Find(7)->message;
  EXPECT_EQ(base.MemoryUsageBytes(),
            sizeof(TweetBase) + base.ids().capacity() * sizeof(int64_t) +
                sizeof(int64_t) + sizeof(SentenceRecord) +
                msg.text.capacity() +
                msg.tokens.capacity() * sizeof(text::Token));
}

MentionRecord MakeMention(int64_t message_id, size_t begin, size_t end,
                          std::vector<float> emb = {}) {
  MentionRecord m;
  m.message_id = message_id;
  m.begin_token = begin;
  m.end_token = end;
  if (!emb.empty()) m.local_embedding = Matrix::RowVector(emb);
  return m;
}

TEST(CandidateBaseTest, MentionPoolGrows) {
  CandidateBase cb;
  cb.AddMentions("coronavirus", {MakeMention(1, 0, 1, {1, 0})});
  cb.AddMentions("coronavirus", {MakeMention(2, 0, 1, {0.9f, 0.1f})});
  EXPECT_EQ(cb.Mentions("coronavirus").size(), 2u);
  EXPECT_EQ(cb.Mentions("unknown").size(), 0u);
  EXPECT_EQ(cb.TotalMentions(), 2u);
}

TEST(CandidateBaseTest, PoolsKeepCanonicalOrder) {
  // Whatever the arrival order, a pool is sorted by (message id, begin
  // token), and a merge keeps each mention's embedding with it.
  CandidateBase cb;
  cb.AddMentions("italy", {MakeMention(5, 2, 3, {5}), MakeMention(2, 0, 1, {2})});
  cb.AddMentions("italy", {MakeMention(5, 0, 1, {4}), MakeMention(9, 1, 2, {9}),
                           MakeMention(3, 4, 5, {3})});
  const std::vector<std::pair<int64_t, size_t>> want = {
      {2, 0}, {3, 4}, {5, 0}, {5, 2}, {9, 1}};
  const auto& pool = cb.Mentions("italy");
  ASSERT_EQ(pool.size(), want.size());
  const float embedding[] = {2, 3, 4, 5, 9};
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(pool[i].message_id, want[i].first) << i;
    EXPECT_EQ(pool[i].begin_token, want[i].second) << i;
    EXPECT_FLOAT_EQ(pool[i].local_embedding.At(0, 0), embedding[i]) << i;
  }
}

TEST(CandidateBaseTest, SurfacesInSortedOrder) {
  CandidateBase cb;
  cb.AddMentions("b", {MakeMention(0, 0, 1)});
  cb.AddMentions("a", {MakeMention(1, 0, 1)});
  cb.AddMentions("b", {MakeMention(2, 0, 1)});
  EXPECT_EQ(cb.surfaces(), (std::vector<std::string>{"a", "b"}));
}

TEST(CandidateBaseTest, MeanEmbeddingUpdatesIncrementally) {
  CandidateBase cb;
  EXPECT_TRUE(cb.MeanEmbedding("x").empty());
  cb.AddMentions("x", {MakeMention(0, 0, 1, {2, 0})});
  EXPECT_FLOAT_EQ(cb.MeanEmbedding("x").At(0, 0), 2.0f);
  cb.AddMentions("x", {MakeMention(1, 0, 1, {0, 4})});
  Matrix mean = cb.MeanEmbedding("x");
  EXPECT_FLOAT_EQ(mean.At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(mean.At(0, 1), 2.0f);
}

TEST(CandidateBaseTest, MeanEmbeddingMatchesBatchMean) {
  // Incremental running mean == recomputed batch mean, regardless of order.
  Rng rng(5);
  CandidateBase cb;
  std::vector<Matrix> embs;
  for (int i = 0; i < 17; ++i) {
    MentionRecord m = MakeMention(i, 0, 1);
    m.local_embedding = Matrix::Randn(1, 6, 1.0f, &rng);
    embs.push_back(m.local_embedding);
    cb.AddMentions("y", {m});
  }
  Matrix batch(embs.size(), 6);
  for (size_t i = 0; i < embs.size(); ++i) {
    std::copy(embs[i].Row(0), embs[i].Row(0) + 6, batch.Row(i));
  }
  Matrix want = MeanRows(batch);
  Matrix got = cb.MeanEmbedding("y");
  for (size_t c = 0; c < 6; ++c) EXPECT_NEAR(got.At(0, c), want.At(0, c), 1e-5f);
}

TEST(CandidateBaseTest, MentionsWithoutEmbeddingsSkippedInMean) {
  CandidateBase cb;
  cb.AddMentions("z", {MakeMention(0, 0, 1)});  // no embedding
  EXPECT_TRUE(cb.MeanEmbedding("z").empty());
  cb.AddMentions("z", {MakeMention(1, 0, 1, {3})});
  EXPECT_FLOAT_EQ(cb.MeanEmbedding("z").At(0, 0), 3.0f);  // count excludes empties
}

TEST(CandidateBaseTest, RemoveMentionsOfDropsOnlyEvictedIds) {
  CandidateBase cb;
  cb.AddMentions("italy", {MakeMention(1, 0, 1, {2, 0}),
                           MakeMention(2, 0, 1, {0, 4}),
                           MakeMention(3, 0, 1, {0, 0})});
  cb.AddMentions("spain", {MakeMention(2, 3, 4, {1, 1})});
  cb.AddMentions("wales", {MakeMention(0, 1, 2, {1, 1})});

  const std::vector<std::string> holding = cb.SurfacesWithMentionsOf({2});
  EXPECT_EQ(holding, (std::vector<std::string>{"italy", "spain"}));
  // The dropped mentions come back whole, in pool order per surface.
  const std::vector<MentionRecord> removed = cb.RemoveMentionsOf({2}, holding);
  ASSERT_EQ(removed.size(), 2u);
  EXPECT_EQ(removed[0].begin_token, 0u);
  EXPECT_FLOAT_EQ(removed[0].local_embedding.At(0, 1), 4.0f);
  EXPECT_EQ(removed[1].begin_token, 3u);
  EXPECT_FLOAT_EQ(removed[1].local_embedding.At(0, 0), 1.0f);
  ASSERT_EQ(cb.Mentions("italy").size(), 2u);
  EXPECT_EQ(cb.Mentions("italy")[0].message_id, 1);
  EXPECT_EQ(cb.Mentions("italy")[1].message_id, 3);
  // The emptied pool is erased, not kept empty.
  EXPECT_TRUE(cb.Mentions("spain").empty());
  EXPECT_EQ(cb.surfaces(), (std::vector<std::string>{"italy", "wales"}));
  // The running mean was recomputed from the survivors.
  Matrix mean = cb.MeanEmbedding("italy");
  EXPECT_FLOAT_EQ(mean.At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(mean.At(0, 1), 0.0f);
}

TEST(CandidateBaseTest, RemoveMentionsOfLeavesUntouchedSurfacesIntact) {
  // Regression: a surface whose pool holds no evicted mentions must keep
  // its embeddings byte-for-byte (an earlier version left moved-from
  // records behind when nothing was removed).
  CandidateBase cb;
  cb.AddMentions("italy", {MakeMention(1, 0, 1, {3, 5})});
  EXPECT_TRUE(cb.SurfacesWithMentionsOf({99}).empty());
  EXPECT_TRUE(cb.SurfacesWithMentionsOf({0}).empty());
  cb.RemoveMentionsOf({99}, {"italy"});
  ASSERT_EQ(cb.Mentions("italy").size(), 1u);
  const Matrix& emb = cb.Mentions("italy")[0].local_embedding;
  ASSERT_FALSE(emb.empty());
  ASSERT_EQ(emb.size(), 2u);
  EXPECT_FLOAT_EQ(emb.At(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(emb.At(0, 1), 5.0f);
}

TEST(CandidateBaseTest, MemoryUsageCountsOnlyHeapStrings) {
  // A short surface is stored inline in its map key; a 40-char surface
  // adds its heap buffer once beside the fixed-size objects.
  CandidateBase cb;
  cb.AddMentions("italy", {MakeMention(0, 0, 1, {1, 2})});
  const size_t short_bytes = cb.MemoryUsageBytes();
  const std::string long_surface(40, 'x');
  CandidateBase twin;
  twin.AddMentions(long_surface, {MakeMention(0, 0, 1, {1, 2})});
  const size_t heap = std::string(long_surface).capacity();
  ASSERT_GT(heap, std::string().capacity());
  EXPECT_EQ(twin.MemoryUsageBytes(), short_bytes + heap);
}

TEST(CandidateBaseTest, MemoryUsageTracksPoolSize) {
  CandidateBase cb;
  const size_t empty_bytes = cb.MemoryUsageBytes();
  for (int i = 0; i < 8; ++i) {
    cb.AddMentions("coronavirus", {MakeMention(i, 0, 1, {1, 2, 3, 4})});
  }
  const size_t full_bytes = cb.MemoryUsageBytes();
  EXPECT_GT(full_bytes, empty_bytes);
  cb.RemoveMentionsOf({0, 1, 2, 3, 4, 5}, {"coronavirus"});
  EXPECT_LT(cb.MemoryUsageBytes(), full_bytes);
}

}  // namespace
}  // namespace nerglob::stream
