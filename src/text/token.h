#ifndef NERGLOB_TEXT_TOKEN_H_
#define NERGLOB_TEXT_TOKEN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace nerglob::text {

/// Lexical class of a microblog token.
enum class TokenKind : uint8_t {
  kWord = 0,
  kHashtag,
  kMention,   // @user
  kUrl,
  kNumber,
  kEmoticon,
  kPunct,
};

const char* TokenKindName(TokenKind kind);

/// One token of a microblog message. It stores only what the pipeline
/// reads; the original spelling is the slice [begin, end) of the message
/// text (`TokenText`).
struct Token {
  /// Matching form used for CTrie lookups, subword hashing and surfaces:
  /// lowercased, with hashtag '#' stripped so "#italy" matches the
  /// candidate "italy". Mentions and URLs keep their sigils (they are
  /// never entity candidates in our pipeline).
  std::string match;
  uint32_t begin = 0;  ///< byte offset of the first char in the message
  uint32_t end = 0;    ///< one past the last char
  TokenKind kind = TokenKind::kWord;

  friend bool operator==(const Token&, const Token&) = default;
};

/// The token's original spelling, e.g. "#Covid19": the bytes of `text`,
/// the message it was cut from, that its offsets span.
inline std::string_view TokenText(std::string_view text, const Token& token) {
  return text.substr(token.begin, token.end - token.begin);
}

}  // namespace nerglob::text

#endif  // NERGLOB_TEXT_TOKEN_H_
