#include <gtest/gtest.h>

#include <sstream>

#include "data/conll_io.h"
#include "data/generator.h"

namespace nerglob::data {
namespace {

using text::EntityType;

constexpr char kSample[] =
    "Andy\tB-PER\n"
    "Beshear\tI-PER\n"
    "shuts\tO\n"
    "schools\tO\n"
    "\n"
    "#Coronavirus\tB-MISC\n"
    "in\tO\n"
    "Italy\tB-LOC\n";

TEST(ConllIoTest, ParsesSentencesAndSpans) {
  std::istringstream in(kSample);
  auto result = ReadConll(in);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& msgs = result.value();
  ASSERT_EQ(msgs.size(), 2u);
  ASSERT_EQ(msgs[0].tokens.size(), 4u);
  ASSERT_EQ(msgs[0].gold_spans.size(), 1u);
  EXPECT_EQ(msgs[0].gold_spans[0].begin_token, 0u);
  EXPECT_EQ(msgs[0].gold_spans[0].end_token, 2u);
  EXPECT_EQ(msgs[0].gold_spans[0].type, EntityType::kPerson);
  ASSERT_EQ(msgs[1].gold_spans.size(), 2u);
  EXPECT_EQ(msgs[1].gold_spans[0].type, EntityType::kMisc);
  EXPECT_EQ(msgs[1].gold_spans[1].type, EntityType::kLocation);
}

TEST(ConllIoTest, MatchFormStripsHashtagAndLowercases) {
  std::istringstream in(kSample);
  auto result = ReadConll(in);
  ASSERT_TRUE(result.ok());
  const auto& msg = result.value()[1];
  const auto& tok = msg.tokens[0];
  EXPECT_EQ(text::TokenText(msg.text, tok), "#Coronavirus");
  EXPECT_EQ(tok.match, "coronavirus");
  EXPECT_EQ(result.value()[0].tokens[0].match, "andy");
}

TEST(ConllIoTest, UnknownFineTypesFoldIntoMisc) {
  std::istringstream in(
      "Fireflies\tB-creative-work\n"
      "iPhone\tB-product\n");
  auto result = ReadConll(in);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value()[0].gold_spans.size(), 2u);
  EXPECT_EQ(result.value()[0].gold_spans[0].type, EntityType::kMisc);
  EXPECT_EQ(result.value()[0].gold_spans[1].type, EntityType::kMisc);
}

TEST(ConllIoTest, AlternativeTypeNames) {
  std::istringstream in(
      "NYC\tB-geo-loc\n"
      "Apple\tB-corporation\n"
      "Bob\tB-person\n");
  auto result = ReadConll(in);
  ASSERT_TRUE(result.ok());
  const auto& spans = result.value()[0].gold_spans;
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].type, EntityType::kLocation);
  EXPECT_EQ(spans[1].type, EntityType::kOrganization);
  EXPECT_EQ(spans[2].type, EntityType::kPerson);
}

TEST(ConllIoTest, BadLabelIsError) {
  std::istringstream in("word\tNOT_A_LABEL\n");
  auto result = ReadConll(in);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ConllIoTest, MissingLabelIsError) {
  std::istringstream in("loneword\n");
  auto result = ReadConll(in);
  ASSERT_FALSE(result.ok());
}

TEST(ConllIoTest, EmptyInputGivesNoMessages) {
  std::istringstream in("\n\n\n");
  auto result = ReadConll(in);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
}

TEST(ConllIoTest, MissingFileIsIoError) {
  auto result = ReadConllFile("/nonexistent/conll.txt");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(ConllIoTest, WriteReadRoundTrip) {
  // Generate a dataset, write CoNLL, read it back: spans must survive.
  KnowledgeBase kb = KnowledgeBase::BuildStandard(5, 3);
  StreamGenerator gen(&kb);
  auto msgs = gen.Generate(MakeDatasetSpec("D1", 0.05));
  std::vector<std::vector<text::EntitySpan>> gold;
  for (const auto& m : msgs) gold.push_back(m.gold_spans);

  std::stringstream buffer;
  ASSERT_TRUE(WriteConll(buffer, msgs, gold).ok());
  auto parsed = ReadConll(buffer);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), msgs.size());
  for (size_t m = 0; m < msgs.size(); ++m) {
    EXPECT_EQ(parsed.value()[m].tokens.size(), msgs[m].tokens.size());
    EXPECT_EQ(parsed.value()[m].gold_spans, msgs[m].gold_spans);
  }
}

TEST(ConllIoTest, WriteRejectsMismatchedSizes) {
  stream::Message m;
  std::stringstream buffer;
  Status s = WriteConll(buffer, {m}, {});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace nerglob::data
