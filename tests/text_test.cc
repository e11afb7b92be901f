#include <gtest/gtest.h>

#include "text/bio.h"
#include "text/subword.h"
#include "text/tokenizer.h"

namespace nerglob::text {
namespace {

/// The spelling of each token of `msg`.
std::vector<std::string> Texts(std::string_view msg) {
  std::vector<std::string> out;
  for (const auto& t : Tokenizer().Tokenize(msg)) {
    out.emplace_back(TokenText(msg, t));
  }
  return out;
}

TEST(TokenizerTest, BasicWords) {
  Tokenizer tok;
  const std::string msg = "beshear shuts down schools";
  auto toks = tok.Tokenize(msg);
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(TokenText(msg, toks[0]), "beshear");
  EXPECT_EQ(toks[0].kind, TokenKind::kWord);
  EXPECT_EQ(TokenText(msg, toks[3]), "schools");
}

TEST(TokenizerTest, TokenHoldsOneStringAndPackedOffsets) {
  // A message holds its tokens for as long as it stays in the window, so
  // a token stores its matching form and nothing a slice of the text
  // gives back.
  EXPECT_LE(sizeof(Token), sizeof(std::string) + 16);
}

TEST(TokenizerTest, TokenizeAllocatesTheExactCapacity) {
  const auto toks = Tokenizer().Tokenize("RT @cdc : wash your hands , #Italy !");
  EXPECT_EQ(toks.size(), 9u);
  EXPECT_EQ(toks.capacity(), toks.size());
}

TEST(TokenizerTest, OffsetsRoundTrip) {
  Tokenizer tok;
  std::string msg = "Italy reports 100 cases";
  auto toks = tok.Tokenize(msg);
  ASSERT_EQ(toks.size(), 4u);
  const std::vector<std::string_view> want = {"Italy", "reports", "100",
                                              "cases"};
  for (size_t i = 0; i < toks.size(); ++i) {
    EXPECT_EQ(TokenText(msg, toks[i]), want[i]);
    EXPECT_EQ(msg.data() + toks[i].begin, TokenText(msg, toks[i]).data());
  }
}

TEST(TokenizerTest, HashtagsKeepSigilButMatchWithout) {
  Tokenizer tok;
  const std::string msg = "spread of #Coronavirus in #Italy";
  auto toks = tok.Tokenize(msg);
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_EQ(toks[2].kind, TokenKind::kHashtag);
  EXPECT_EQ(TokenText(msg, toks[2]), "#Coronavirus");
  EXPECT_EQ(toks[2].match, "coronavirus");
  EXPECT_EQ(toks[4].match, "italy");
}

TEST(TokenizerTest, MentionsAndUrls) {
  Tokenizer tok;
  const std::string msg = "RT @GovAndyBeshear see https://t.co/abc123 now";
  auto toks = tok.Tokenize(msg);
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_EQ(toks[1].kind, TokenKind::kMention);
  EXPECT_EQ(TokenText(msg, toks[1]), "@GovAndyBeshear");
  EXPECT_EQ(toks[3].kind, TokenKind::kUrl);
  EXPECT_EQ(TokenText(msg, toks[3]), "https://t.co/abc123");
}

TEST(TokenizerTest, WwwUrl) {
  Tokenizer tok;
  auto toks = tok.Tokenize("go to www.nhs.uk please");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[2].kind, TokenKind::kUrl);
}

TEST(TokenizerTest, NumbersWithSeparators) {
  Tokenizer tok;
  const std::string msg = "cases hit 1,234.5 at 10:30";
  auto toks = tok.Tokenize(msg);
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_EQ(TokenText(msg, toks[2]), "1,234.5");
  EXPECT_EQ(toks[2].kind, TokenKind::kNumber);
  EXPECT_EQ(TokenText(msg, toks[4]), "10:30");
}

TEST(TokenizerTest, Emoticons) {
  Tokenizer tok;
  auto toks = tok.Tokenize("stay safe :) <3");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[2].kind, TokenKind::kEmoticon);
  EXPECT_EQ(toks[3].kind, TokenKind::kEmoticon);
}

TEST(TokenizerTest, ContractionsStayTogether) {
  auto texts = Texts("don't panic y'all");
  ASSERT_EQ(texts.size(), 3u);
  EXPECT_EQ(texts[0], "don't");
  EXPECT_EQ(texts[2], "y'all");
}

TEST(TokenizerTest, PunctuationSplitsOff) {
  auto texts = Texts("lockdown, now!");
  ASSERT_EQ(texts.size(), 4u);
  EXPECT_EQ(texts[1], ",");
  EXPECT_EQ(texts[3], "!");
}

TEST(TokenizerTest, TrailingApostropheNotPartOfWord) {
  auto texts = Texts("the virus' spread");
  ASSERT_EQ(texts.size(), 4u);
  EXPECT_EQ(texts[1], "virus");
  EXPECT_EQ(texts[2], "'");
}

TEST(TokenizerTest, EmptyAndWhitespaceOnly) {
  Tokenizer tok;
  EXPECT_TRUE(tok.Tokenize("").empty());
  EXPECT_TRUE(tok.Tokenize("   \t\n ").empty());
}

TEST(TokenizerTest, AlphanumericWordsKeepDigits) {
  Tokenizer tok;
  const std::string msg = "covid19 wave";
  auto toks = tok.Tokenize(msg);
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(TokenText(msg, toks[0]), "covid19");
  EXPECT_EQ(toks[0].kind, TokenKind::kWord);
}

TEST(SqueezeElongationTest, SqueezesRuns) {
  EXPECT_EQ(SqueezeElongation("sooooo"), "soo");
  EXPECT_EQ(SqueezeElongation("cool"), "cool");
  EXPECT_EQ(SqueezeElongation(""), "");
  EXPECT_EQ(SqueezeElongation("aaabbbccc"), "aabbcc");
}

TEST(BioTest, LabelIdsRoundTrip) {
  for (int t = 0; t < kNumEntityTypes; ++t) {
    EntityType type = static_cast<EntityType>(t);
    int b = BioBeginLabel(type);
    int i = BioInsideLabel(type);
    EXPECT_TRUE(IsBioBegin(b));
    EXPECT_TRUE(IsBioInside(i));
    EXPECT_EQ(BioLabelType(b), type);
    EXPECT_EQ(BioLabelType(i), type);
  }
  EXPECT_EQ(kNumBioLabels, 9);
}

TEST(BioTest, LabelNames) {
  EXPECT_EQ(BioLabelName(kBioOutside), "O");
  EXPECT_EQ(BioLabelName(BioBeginLabel(EntityType::kPerson)), "B-PER");
  EXPECT_EQ(BioLabelName(BioInsideLabel(EntityType::kMisc)), "I-MISC");
}

TEST(BioTest, EntityTypeNamesParse) {
  for (int t = 0; t < kNumEntityTypes; ++t) {
    EntityType type = static_cast<EntityType>(t);
    EntityType parsed;
    ASSERT_TRUE(ParseEntityType(EntityTypeName(type), &parsed));
    EXPECT_EQ(parsed, type);
  }
  EntityType dummy;
  EXPECT_FALSE(ParseEntityType("XYZ", &dummy));
}

TEST(BioTest, SpansPrintAsHalfOpenRangeAndType) {
  // Failed expectations on span vectors show each span readably instead
  // of as raw bytes.
  EXPECT_EQ(::testing::PrintToString(EntitySpan{2, 4, EntityType::kLocation}),
            "[2,4) LOC");
  EXPECT_EQ(::testing::PrintToString(std::vector<EntitySpan>{
                {0, 1, EntityType::kPerson}, {3, 5, EntityType::kMisc}}),
            "{ [0,1) PER, [3,5) MISC }");
}

TEST(BioTest, EncodeDecodeRoundTrip) {
  std::vector<EntitySpan> spans = {
      {1, 3, EntityType::kPerson},
      {4, 5, EntityType::kLocation},
  };
  auto labels = EncodeBio(6, spans);
  EXPECT_EQ(labels[0], kBioOutside);
  EXPECT_EQ(labels[1], BioBeginLabel(EntityType::kPerson));
  EXPECT_EQ(labels[2], BioInsideLabel(EntityType::kPerson));
  EXPECT_EQ(labels[4], BioBeginLabel(EntityType::kLocation));
  auto decoded = DecodeBio(labels);
  EXPECT_EQ(decoded, spans);
}

TEST(BioTest, DecodeAdjacentEntities) {
  // B-PER B-PER: two adjacent single-token entities.
  std::vector<int> labels = {BioBeginLabel(EntityType::kPerson),
                             BioBeginLabel(EntityType::kPerson)};
  auto spans = DecodeBio(labels);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].end_token, 1u);
  EXPECT_EQ(spans[1].begin_token, 1u);
}

TEST(BioTest, DecodeRepairsDanglingInside) {
  // O I-LOC I-LOC -> treated as one LOC span (conlleval repair).
  std::vector<int> labels = {kBioOutside, BioInsideLabel(EntityType::kLocation),
                             BioInsideLabel(EntityType::kLocation)};
  auto spans = DecodeBio(labels);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].begin_token, 1u);
  EXPECT_EQ(spans[0].end_token, 3u);
  EXPECT_EQ(spans[0].type, EntityType::kLocation);
}

TEST(BioTest, DecodeTypeChangeSplitsSpan) {
  // B-PER I-LOC: type change inside -> two spans.
  std::vector<int> labels = {BioBeginLabel(EntityType::kPerson),
                             BioInsideLabel(EntityType::kLocation)};
  auto spans = DecodeBio(labels);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].type, EntityType::kPerson);
  EXPECT_EQ(spans[1].type, EntityType::kLocation);
}

TEST(BioTest, SpanAtSentenceEndCloses) {
  std::vector<int> labels = {kBioOutside, BioBeginLabel(EntityType::kOrganization),
                             BioInsideLabel(EntityType::kOrganization)};
  auto spans = DecodeBio(labels);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].end_token, 3u);
}

TEST(SubwordTest, DeterministicAndBounded) {
  HashedSubwordVocab vocab(1000);
  auto a = vocab.SubwordIds("coronavirus");
  auto b = vocab.SubwordIds("coronavirus");
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  for (int id : a) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, 1000);
  }
}

TEST(SubwordTest, SharedNgramsForRelatedWords) {
  HashedSubwordVocab vocab(100000);
  auto a = vocab.SubwordIds("coronavirus");
  auto b = vocab.SubwordIds("virus");
  int shared = 0;
  for (int x : a) {
    for (int y : b) {
      if (x == y) ++shared;
    }
  }
  EXPECT_GT(shared, 0);  // "vir","iru","rus","us>"...
}

TEST(SubwordTest, ShortWordsStillGetIds) {
  HashedSubwordVocab vocab(1000);
  auto ids = vocab.SubwordIds("a");
  EXPECT_FALSE(ids.empty());  // at least whole-word + "<a>"
  EXPECT_GE(ids.size(), 2u);
}

TEST(SubwordTest, DifferentWordsDiffer) {
  HashedSubwordVocab vocab(1u << 20);
  EXPECT_NE(vocab.SubwordIds("trump")[0], vocab.SubwordIds("italy")[0]);
}

}  // namespace
}  // namespace nerglob::text
