// Strict decimal parsing for command-line values and config tokens.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace g5r {

/// @p text as a decimal integer no larger than @p max. The whole of @p text
/// must be digits: empty text, a sign, whitespace, trailing characters and
/// out-of-range values all give nullopt, so "8x" is an error rather than 8.
inline std::optional<std::uint64_t> parseDecimal(
    std::string_view text, std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
    std::uint64_t value = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end || value > max) return std::nullopt;
    return value;
}

}  // namespace g5r
