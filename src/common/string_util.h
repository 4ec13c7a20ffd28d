#ifndef SKALLA_COMMON_STRING_UTIL_H_
#define SKALLA_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace skalla {

/// Joins the elements of `parts` with `sep` between each pair.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `text` on the (single-character) separator; keeps empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Parses all of `text` as a base-10 int64 (strtoll's syntax: optional
/// leading whitespace, then an optional sign and digits). nullopt when the
/// text is empty, holds anything else, or is outside the int64 range —
/// never a clamped value.
std::optional<int64_t> ParseInt64(std::string_view text);

/// Lower-cases ASCII letters.
std::string ToLower(std::string_view text);

/// Formats a byte count as a human-readable string ("1.5 MB").
std::string HumanBytes(double bytes);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...);

}  // namespace skalla

#endif  // SKALLA_COMMON_STRING_UTIL_H_
