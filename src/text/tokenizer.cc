#include "text/tokenizer.h"

#include <cctype>
#include <cstdint>

#include "common/check.h"
#include "common/string_util.h"

namespace nerglob::text {

const char* TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kWord:
      return "word";
    case TokenKind::kHashtag:
      return "hashtag";
    case TokenKind::kMention:
      return "mention";
    case TokenKind::kUrl:
      return "url";
    case TokenKind::kNumber:
      return "number";
    case TokenKind::kEmoticon:
      return "emoticon";
    case TokenKind::kPunct:
      return "punct";
  }
  return "unknown";
}

namespace {

bool IsWordChar(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '\'' || c == '-';
}

bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)); }

/// Matches a known emoticon at position i; returns its length or 0.
size_t MatchEmoticon(std::string_view s, size_t i) {
  static constexpr std::string_view kEmoticons[] = {
      ":-)", ":-(", ":-D", ":-P", ":)", ":(", ":D", ":P", ";-)",
      ";)",  ":o",  ":O",  "<3",  ":/", ":|", "xD",  "XD",
  };
  for (std::string_view e : kEmoticons) {
    if (s.substr(i, e.size()) == e) return e.size();
  }
  return 0;
}

/// Matches a URL at position i; returns its length or 0. URLs run until
/// whitespace.
size_t MatchUrl(std::string_view s, size_t i) {
  std::string_view rest = s.substr(i);
  if (!(StartsWith(rest, "http://") || StartsWith(rest, "https://") ||
        StartsWith(rest, "www."))) {
    return 0;
  }
  size_t len = 0;
  while (i + len < s.size() && !IsSpace(s[i + len])) ++len;
  return len;
}

Token MakeToken(std::string_view s, size_t begin, size_t end, TokenKind kind) {
  Token t;
  // A hashtag matches without its '#'.
  const size_t sigil = kind == TokenKind::kHashtag && end - begin > 1 ? 1 : 0;
  t.match = ToLowerAscii(s.substr(begin + sigil, end - begin - sigil));
  t.begin = static_cast<uint32_t>(begin);
  t.end = static_cast<uint32_t>(end);
  t.kind = kind;
  return t;
}

/// Calls emit(begin, end, kind) for each token of `s`, in order.
template <typename Emit>
void ScanTokens(std::string_view s, Emit&& emit) {
  size_t i = 0;
  while (i < s.size()) {
    if (IsSpace(s[i])) {
      ++i;
      continue;
    }
    // URLs first: they may contain every other character class.
    if (size_t len = MatchUrl(s, i); len > 0) {
      emit(i, i + len, TokenKind::kUrl);
      i += len;
      continue;
    }
    if (size_t len = MatchEmoticon(s, i); len > 0) {
      emit(i, i + len, TokenKind::kEmoticon);
      i += len;
      continue;
    }
    const char c = s[i];
    if ((c == '#' || c == '@') && i + 1 < s.size() &&
        (std::isalnum(static_cast<unsigned char>(s[i + 1])) || s[i + 1] == '_')) {
      size_t j = i + 1;
      while (j < s.size() &&
             (std::isalnum(static_cast<unsigned char>(s[j])) || s[j] == '_')) {
        ++j;
      }
      emit(i, j, c == '#' ? TokenKind::kHashtag : TokenKind::kMention);
      i = j;
      continue;
    }
    if (IsDigit(c)) {
      size_t j = i;
      while (j < s.size() &&
             (IsDigit(s[j]) || ((s[j] == '.' || s[j] == ',' || s[j] == ':') &&
                                j + 1 < s.size() && IsDigit(s[j + 1])))) {
        ++j;
      }
      emit(i, j, TokenKind::kNumber);
      i = j;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c))) {
      size_t j = i;
      while (j < s.size() && (IsWordChar(s[j]) || IsDigit(s[j]))) ++j;
      // Trim trailing apostrophes/hyphens that belong to punctuation.
      while (j > i && (s[j - 1] == '\'' || s[j - 1] == '-')) --j;
      emit(i, j, TokenKind::kWord);
      i = j;
      continue;
    }
    // Anything else: single punctuation character.
    emit(i, i + 1, TokenKind::kPunct);
    ++i;
  }
}

}  // namespace

std::vector<Token> Tokenizer::Tokenize(std::string_view s) const {
  NERGLOB_CHECK_LE(s.size(), size_t{UINT32_MAX});
  // The first pass counts, so the vector is allocated once, at its exact
  // size: a message's tokens live as long as it stays in the window.
  size_t count = 0;
  ScanTokens(s, [&](size_t, size_t, TokenKind) { ++count; });
  std::vector<Token> out;
  out.reserve(count);
  ScanTokens(s, [&](size_t begin, size_t end, TokenKind kind) {
    out.push_back(MakeToken(s, begin, end, kind));
  });
  return out;
}

std::string SqueezeElongation(std::string_view word) {
  std::string out;
  out.reserve(word.size());
  size_t run = 0;
  for (size_t i = 0; i < word.size(); ++i) {
    if (i > 0 && word[i] == word[i - 1]) {
      ++run;
    } else {
      run = 1;
    }
    if (run <= 2) out.push_back(word[i]);
  }
  return out;
}

}  // namespace nerglob::text
