#ifndef NERGLOB_COMMON_STRING_UTIL_H_
#define NERGLOB_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace nerglob {

/// ASCII-lowercases a string (microblog text in this project is ASCII-folded
/// by the normalizer before matching, so ASCII case folding suffices).
std::string ToLowerAscii(std::string_view s);

/// Case-insensitive ASCII comparison.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Splits on any amount of whitespace; no empty pieces.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Splits on a single character delimiter; keeps empty pieces.
std::vector<std::string> SplitChar(std::string_view s, char delim);

/// Joins pieces with a separator.
std::string Join(const std::vector<std::string>& pieces, std::string_view sep);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Trims ASCII whitespace from both ends.
std::string_view TrimWhitespace(std::string_view s);

/// FNV-1a 64-bit offset basis: the hash of the empty string.
inline constexpr uint64_t kFnv1aBasis = 1469598103934665603ULL;

/// FNV-1a 64-bit hash; used for hashed subword features. Given the hash
/// `h` of a prefix, returns the hash of that prefix followed by `s`.
uint64_t Fnv1aHash(std::string_view s, uint64_t h = kFnv1aBasis);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace nerglob

#endif  // NERGLOB_COMMON_STRING_UTIL_H_
