#include "baselines/twics.h"

#include <cctype>
#include <map>

#include "common/string_util.h"
#include "trie/candidate_trie.h"

namespace nerglob::baselines {

namespace {

bool IsEntityLikeToken(const stream::Message& msg, size_t t) {
  const text::Token& token = msg.tokens[t];
  if (token.kind == text::TokenKind::kHashtag) return true;
  if (token.kind != text::TokenKind::kWord) return false;
  const std::string_view spelling = text::TokenText(msg.text, token);
  if (spelling.empty()) return false;
  const unsigned char first = static_cast<unsigned char>(spelling[0]);
  if (!std::isupper(first)) return false;
  // "RT" and other all-caps chatter shorter than 2 chars are noise, but
  // all-caps entity mentions ("NHS", "ITALY") are common; keep len >= 2.
  return spelling.size() >= 2 || spelling.size() == 1;
}

/// The retweet marker, spelt "RT" in any case. The spelling is compared,
/// not the matching form, which the hashtag "#RT" shares.
bool IsRetweetMarker(const stream::Message& msg, size_t t) {
  return EqualsIgnoreCase(text::TokenText(msg.text, msg.tokens[t]), "rt");
}

std::string SurfaceOf(const stream::Message& msg, size_t begin, size_t end) {
  std::string surface;
  for (size_t t = begin; t < end; ++t) {
    if (!surface.empty()) surface += ' ';
    surface += msg.tokens[t].match;
  }
  return surface;
}

}  // namespace

std::vector<std::vector<text::EntitySpan>> TwicsEmd::Predict(
    const std::vector<stream::Message>& messages) const {
  // Pass 1a: shallow-syntactic candidate mentions.
  struct SupportCount {
    int syntactic = 0;
    int total = 0;
  };
  std::map<std::string, SupportCount> support;
  trie::CandidateTrie trie;
  for (const auto& msg : messages) {
    size_t t = 0;
    while (t < msg.tokens.size()) {
      if (!IsEntityLikeToken(msg, t) || IsRetweetMarker(msg, t)) {
        ++t;
        continue;
      }
      size_t end = t;
      while (end < msg.tokens.size() && end - t < config_.max_phrase_len &&
             IsEntityLikeToken(msg, end)) {
        ++end;
      }
      const std::string surface = SurfaceOf(msg, t, end);
      ++support[surface].syntactic;
      std::vector<std::string> tokens;
      for (size_t k = t; k < end; ++k) tokens.push_back(msg.tokens[k].match);
      trie.Insert(tokens);
      t = end;
    }
  }
  if (trie.size() == 0) {
    return std::vector<std::vector<text::EntitySpan>>(messages.size());
  }

  // Pass 1b: total (case-insensitive) occurrences of every candidate.
  std::vector<std::vector<trie::TokenSpan>> matches_per_message(messages.size());
  for (size_t m = 0; m < messages.size(); ++m) {
    std::vector<std::string> toks;
    for (const auto& token : messages[m].tokens) toks.push_back(token.match);
    matches_per_message[m] =
        trie.FindLongestMatches(toks, config_.max_phrase_len);
    for (const auto& span : matches_per_message[m]) {
      ++support[SurfaceOf(messages[m], span.begin, span.end)].total;
    }
  }

  // Pass 2: accept surfaces with enough syntactic support; emit all their
  // occurrences (untyped — the dummy type is ignored by EMD scoring).
  std::vector<std::vector<text::EntitySpan>> out(messages.size());
  for (size_t m = 0; m < messages.size(); ++m) {
    for (const auto& span : matches_per_message[m]) {
      const auto it = support.find(SurfaceOf(messages[m], span.begin, span.end));
      if (it == support.end() || it->second.total == 0) continue;
      const double ratio =
          static_cast<double>(it->second.syntactic) / it->second.total;
      const bool accepted =
          it->second.total >= config_.min_occurrences
              ? ratio >= config_.min_support
              : it->second.syntactic == it->second.total;
      if (accepted) {
        out[m].push_back({span.begin, span.end, text::EntityType::kPerson});
      }
    }
  }
  return out;
}

}  // namespace nerglob::baselines
