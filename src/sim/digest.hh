// FNV-1a 64, the digest of event names (Event::nameDigest) and of .g5rec
// intervals (obs/recording.hh). Changing it changes every recording.
#pragma once

#include <cstdint>
#include <string_view>

namespace g5r {

inline constexpr std::uint64_t kDigestSeed = 14695981039346656037ULL;
inline constexpr std::uint64_t kDigestPrime = 1099511628211ULL;

inline std::uint64_t digestByte(std::uint64_t h, unsigned char b) {
    return (h ^ b) * kDigestPrime;
}

inline std::uint64_t digestU64(std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h = digestByte(h, static_cast<unsigned char>(v & 0xff));
        v >>= 8;
    }
    return h;
}

inline std::uint64_t digestStr(std::uint64_t h, std::string_view s) {
    for (const char c : s) h = digestByte(h, static_cast<unsigned char>(c));
    return h;
}

inline std::uint64_t digestOf(std::string_view s) { return digestStr(kDigestSeed, s); }

}  // namespace g5r
