#include <gtest/gtest.h>

#include <utility>

#include "baselines/twics.h"
#include "text/tokenizer.h"

namespace nerglob::baselines {
namespace {

stream::Message Msg(int64_t id, const std::string& txt) {
  stream::Message m;
  m.id = id;
  m.text = txt;
  m.tokens = text::Tokenizer().Tokenize(txt);
  return m;
}

TEST(TwicsTest, AcceptsConsistentlyCapitalizedSurface) {
  // "Beshear" always capitalized -> accepted; every occurrence (even the
  // lowercase one) is then emitted via the case-insensitive scan.
  std::vector<stream::Message> msgs = {
      Msg(0, "Beshear shuts schools"),
      Msg(1, "thank you Beshear"),
      Msg(2, "beshear update is out"),
  };
  TwicsEmd twics;
  auto preds = twics.Predict(msgs);
  ASSERT_EQ(preds.size(), 3u);
  EXPECT_EQ(preds[0].size(), 1u);
  EXPECT_EQ(preds[1].size(), 1u);
  ASSERT_EQ(preds[2].size(), 1u);  // lowercase mention recovered
  EXPECT_EQ(preds[2][0].begin_token, 0u);
}

TEST(TwicsTest, RejectsIncidentalCapitalization) {
  // "Great" capitalized once but usually lowercase -> support below 0.5.
  std::vector<stream::Message> msgs = {
      Msg(0, "Great day today"),
      Msg(1, "what a great game"),
      Msg(2, "this is great news"),
      Msg(3, "a great result again"),
  };
  TwicsEmd twics;
  auto preds = twics.Predict(msgs);
  size_t total = 0;
  for (const auto& p : preds) total += p.size();
  EXPECT_EQ(total, 0u);
}

TEST(TwicsTest, HashtagsAreEntityLike) {
  std::vector<stream::Message> msgs = {
      Msg(0, "#Coronavirus is spreading"),
      Msg(1, "worried about coronavirus today"),
  };
  TwicsEmd twics;
  auto preds = twics.Predict(msgs);
  // Hashtag occurrence + lowercase occurrence: support 1/2 -> accepted at
  // the 0.5 default threshold; both mentions emitted.
  EXPECT_EQ(preds[0].size() + preds[1].size(), 2u);
}

TEST(TwicsTest, MultiTokenRuns) {
  std::vector<stream::Message> msgs = {
      Msg(0, "Justice Department opens probe"),
      Msg(1, "the Justice Department denies it"),
  };
  TwicsEmd twics;
  auto preds = twics.Predict(msgs);
  ASSERT_EQ(preds[0].size(), 1u);
  EXPECT_EQ(preds[0][0].end_token - preds[0][0].begin_token, 2u);
}

TEST(TwicsTest, RtPrefixIgnored) {
  std::vector<stream::Message> msgs = {
      Msg(0, "RT @user : Madrid wins again"),
      Msg(1, "RT @user : Madrid celebrates tonight"),
  };
  TwicsEmd twics;
  auto preds = twics.Predict(msgs);
  for (const auto& p : preds) {
    for (const auto& span : p) {
      // "rt" (token 0) must never be part of a mention.
      EXPECT_GT(span.begin_token, 0u);
    }
  }
}

TEST(TwicsTest, RetweetMarkerIsTheSpellingRtInAnyCase) {
  // "RT" and "rt" never start a mention, whatever the case. The hashtag
  // "#RT" shares their matching form "rt" but is spelt differently, so it
  // is entity-like and starts one.
  auto spans_of = [](const std::string& prefix) {
    TwicsEmd twics;
    const auto preds = twics.Predict(
        {Msg(0, prefix + " Madrid wins"), Msg(1, prefix + " Madrid again")});
    std::vector<std::pair<size_t, size_t>> spans;
    for (const auto& p : preds) {
      for (const auto& span : p) spans.emplace_back(span.begin_token, span.end_token);
    }
    return spans;
  };
  using Spans = std::vector<std::pair<size_t, size_t>>;
  EXPECT_EQ(spans_of("RT"), (Spans{{1, 2}, {1, 2}}));
  EXPECT_EQ(spans_of("rt"), (Spans{{1, 2}, {1, 2}}));
  EXPECT_EQ(spans_of("Rt"), (Spans{{1, 2}, {1, 2}}));
  EXPECT_EQ(spans_of("#RT"), (Spans{{0, 2}, {0, 2}}));
}

TEST(TwicsTest, EmptyStream) {
  TwicsEmd twics;
  EXPECT_TRUE(twics.Predict({}).empty());
  auto preds = twics.Predict({Msg(0, "all lowercase text only")});
  EXPECT_TRUE(preds[0].empty());
}

}  // namespace
}  // namespace nerglob::baselines
