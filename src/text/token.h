#ifndef NERGLOB_TEXT_TOKEN_H_
#define NERGLOB_TEXT_TOKEN_H_

#include <string>
#include <vector>

namespace nerglob::text {

/// Lexical class of a microblog token.
enum class TokenKind {
  kWord = 0,
  kHashtag,
  kMention,   // @user
  kUrl,
  kNumber,
  kEmoticon,
  kPunct,
};

const char* TokenKindName(TokenKind kind);

/// One token of a microblog message, with offsets into the original text.
struct Token {
  std::string text;   ///< original surface text, e.g. "#Covid19"
  std::string lower;  ///< ASCII-lowercased text, e.g. "#covid19"
  /// Matching form used for CTrie lookups: lowercased, with hashtag '#'
  /// stripped so "#italy" matches the candidate "italy". Mentions and URLs
  /// keep their sigils (they are never entity candidates in our pipeline).
  std::string match;
  size_t begin = 0;  ///< byte offset of the first char in the message
  size_t end = 0;    ///< one past the last char
  TokenKind kind = TokenKind::kWord;

  friend bool operator==(const Token&, const Token&) = default;
};

}  // namespace nerglob::text

#endif  // NERGLOB_TEXT_TOKEN_H_
