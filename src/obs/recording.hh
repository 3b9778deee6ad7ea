// Flight-recording format: the .g5rec sidecar written by obs::Recorder and
// consumed by the first-divergence finder (obs/diff.hh, `g5r diff` CLI).
//
// A recording summarises one run's dispatch and packet streams as a list of
// fixed-width simulated-time intervals. Each interval carries, per lane
// (dispatch / packet), an event count, an order-sensitive FNV-1a 64 digest
// of the interval's events, and the *cumulative* digest of everything up to
// and including the interval. Cumulative digests make "do the two runs agree
// through interval i?" a single comparison, so the diff tool can binary-
// search for the first divergent interval instead of replaying both streams.
//
// Two lanes exist because quiescence gating (PR 4) changes the dispatch
// stream by design while leaving the packet stream identical: gated-vs-
// ungated identity checks compare the packet lane only, while jobs-1 vs
// jobs-N determinism checks compare both.
//
// The format is deterministic plain text — no host times, no pointers — so
// byte-identical runs produce byte-identical files at any --jobs count:
//
//   g5rec 1                      header + version
//   run <label>                  run label (rest of line, may be empty)
//   interval <ticks>             interval width
//   iv <idx> <start> <dCount> <dDig> <dCum> <pCount> <pDig> <pCum>
//   ob <slot> <count> <digest> <firstTick>     per-object rows of last iv
//   obj <slot> <name>            slot -> SimObject name table
//   bb <seq> <kind> <tick> <slot> <text...>    black-box tail (oldest first)
//   end <finalTick> <dispatches> <packets> <dCum> <pCum>
//
// Digests print as 16 hex digits. Empty intervals are not written; the
// cumulative digest simply carries across the gap.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/ticks.hh"

namespace g5r::obs {

// --- FNV-1a 64 --------------------------------------------------------------

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

/// Stand-alone digest of a string (event labels are hashed once, then the
/// 64-bit result is mixed per dispatch).
inline std::uint64_t digestOf(std::string_view s) { return digestStr(kDigestSeed, s); }

// --- in-memory model --------------------------------------------------------

/// One SimObject's share of an interval (dispatch lane only).
struct ObjEntry {
    int slot = 0;
    std::uint64_t count = 0;
    std::uint64_t digest = kDigestSeed;
    Tick firstTick = 0;  ///< Tick of the object's first dispatch in the interval.
};

struct IntervalRecord {
    std::uint64_t index = 0;  ///< Interval number: covers [index*T, (index+1)*T).
    Tick startTick = 0;
    std::uint64_t dispatchCount = 0;
    std::uint64_t dispatchDigest = kDigestSeed;  ///< This interval only.
    std::uint64_t cumDispatchDigest = kDigestSeed;
    std::uint64_t packetCount = 0;
    std::uint64_t packetDigest = kDigestSeed;
    std::uint64_t cumPacketDigest = kDigestSeed;
    std::vector<ObjEntry> objects;  ///< Sorted by slot.
};

/// One black-box ring entry: kind 'D' = dispatch, 'P' = packet op.
struct BlackBoxEntry {
    std::uint64_t seq = 0;
    char kind = 'D';
    Tick tick = 0;
    int slot = 0;
    std::string text;
};

struct Recording {
    std::string runLabel;
    Tick intervalTicks = 0;
    std::vector<std::string> objectNames;  ///< Indexed by slot; "" = unknown.
    std::vector<IntervalRecord> intervals;  ///< Sorted by index; empty ones omitted.
    std::vector<BlackBoxEntry> blackBox;    ///< Oldest first.

    bool hasEnd = false;
    Tick finalTick = 0;
    std::uint64_t totalDispatches = 0;
    std::uint64_t totalPackets = 0;
    std::uint64_t finalDispatchDigest = kDigestSeed;
    std::uint64_t finalPacketDigest = kDigestSeed;

    const std::string& objectName(int slot) const;

    /// Parse @p path. Throws std::runtime_error with a line-numbered message
    /// on malformed input or an unreadable file.
    static Recording load(const std::string& path);
};

}  // namespace g5r::obs
