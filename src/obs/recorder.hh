// obs::Recorder — the flight recorder.
//
// Fed by ObsSession on every dispatch and packet-lifecycle callback, it
// maintains:
//
//   * per-interval digests of the dispatch and packet lanes, streamed to a
//     .g5rec sidecar file (format: obs/recording.hh) as each interval
//     closes, with a flush per interval so a crash loses at most the open
//     interval; and
//   * an always-cheap in-memory ring of the last K dispatches/packets — the
//     "black box" — dumped to stderr by panic() via a panic hook registered
//     for the lifetime of the recorder, and appended to the sidecar by
//     finish() so `g5r diff` can show the event neighborhood of a divergence.
//
// The recorder holds no host-time or pointer state in anything it writes:
// recordings of byte-identical runs are byte-identical at any --jobs count.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "obs/recording.hh"
#include "sim/logging.hh"
#include "sim/ticks.hh"

namespace g5r::obs {

class Recorder {
public:
    /// Open @p path for writing. An unopenable path degrades to ok()==false:
    /// the black box still runs, the sidecar is silently skipped.
    Recorder(std::string path, std::string runLabel, Tick intervalTicks,
             unsigned blackBoxDepth);
    ~Recorder();
    Recorder(const Recorder&) = delete;
    Recorder& operator=(const Recorder&) = delete;

    bool ok() const { return static_cast<bool>(out_); }
    const std::string& path() const { return path_; }

    /// One event dispatch. @p labelHash is the precomputed digestOf(label)
    /// (Event::nameDigest()) so the hot path hashes 8 bytes, not the label
    /// string.
    void recordDispatch(Tick when, int slot, const std::string& label,
                        std::uint64_t labelHash);

    /// One packet lifecycle step: op is 'I'ssue, 'F'orward, 'R'espond,
    /// 'C'omplete. addr/size/isRead are meaningful for 'I' only.
    void recordPacket(Tick when, int slot, char op, std::uint64_t id, std::uint64_t addr,
                      unsigned size, bool isRead);

    /// Record the slot -> SimObject name binding (first time only).
    void noteObjectName(int slot, const std::string& name);

    /// Close the open interval, write the name table, black box and end
    /// line, and close the file. Idempotent; also run by the destructor.
    void finish(Tick finalTick);

    /// The black-box report panic() prints: one header plus one line per
    /// ring entry, oldest first.
    std::string blackBoxReport() const;

private:
    struct ObjAcc {
        std::uint64_t count = 0;
        std::uint64_t digest = kDigestSeed;
        Tick firstTick = 0;
    };

    void rollTo(Tick when);
    void flushInterval();
    void pushBlackBox(char kind, Tick tick, int slot, std::string text);

    std::string path_;
    std::string runLabel_;
    std::ofstream out_;
    Tick interval_;

    // Open interval state.
    bool intervalOpen_ = false;
    std::uint64_t intervalIndex_ = 0;
    Tick intervalStart_ = 0;
    std::uint64_t ivDispatchCount_ = 0;
    std::uint64_t ivDispatchDigest_ = kDigestSeed;
    std::uint64_t ivPacketCount_ = 0;
    std::uint64_t ivPacketDigest_ = kDigestSeed;
    std::vector<ObjAcc> ivObjects_;  ///< Indexed by slot.

    // Whole-run state.
    std::uint64_t cumDispatchDigest_ = kDigestSeed;
    std::uint64_t cumPacketDigest_ = kDigestSeed;
    std::uint64_t totalDispatches_ = 0;
    std::uint64_t totalPackets_ = 0;
    Tick lastTick_ = 0;
    std::vector<std::string> objectNames_;

    // Black box.
    std::vector<BlackBoxEntry> ring_;
    std::size_t ringNext_ = 0;
    std::uint64_t ringSeq_ = 0;
    unsigned ringDepth_;

    bool finished_ = false;
    std::unique_ptr<PanicHookScope> panicHook_;
};

}  // namespace g5r::obs
