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
#include <vector>

#include "sim/digest.hh"
#include "sim/ticks.hh"

namespace g5r::obs {

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
