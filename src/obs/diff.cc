#include "obs/diff.hh"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "exp/json.hh"
#include "sim/args.hh"

namespace g5r::obs {

namespace {

/// Effective state of one recording "as of the end of" a merged interval
/// index: cumulative digests carry across intervals the run left empty.
struct Eff {
    std::uint64_t cumDispatch = kDigestSeed;
    std::uint64_t cumPacket = kDigestSeed;
    const IntervalRecord* rec = nullptr;  ///< Non-null when present at this index.
};

/// Per merged index, the effective state of both sides.
struct MergedRow {
    std::uint64_t index = 0;
    Eff a, b;
};

std::vector<MergedRow> mergeIntervals(const Recording& a, const Recording& b) {
    std::vector<MergedRow> rows;
    rows.reserve(a.intervals.size() + b.intervals.size());
    std::size_t ia = 0, ib = 0;
    Eff effA, effB;
    while (ia < a.intervals.size() || ib < b.intervals.size()) {
        const std::uint64_t nextA =
            ia < a.intervals.size() ? a.intervals[ia].index : UINT64_MAX;
        const std::uint64_t nextB =
            ib < b.intervals.size() ? b.intervals[ib].index : UINT64_MAX;
        const std::uint64_t idx = std::min(nextA, nextB);
        MergedRow row;
        row.index = idx;
        if (nextA == idx) {
            effA.cumDispatch = a.intervals[ia].cumDispatchDigest;
            effA.cumPacket = a.intervals[ia].cumPacketDigest;
            effA.rec = &a.intervals[ia];
            ++ia;
        } else {
            effA.rec = nullptr;
        }
        if (nextB == idx) {
            effB.cumDispatch = b.intervals[ib].cumDispatchDigest;
            effB.cumPacket = b.intervals[ib].cumPacketDigest;
            effB.rec = &b.intervals[ib];
            ++ib;
        } else {
            effB.rec = nullptr;
        }
        row.a = effA;
        row.b = effB;
        rows.push_back(row);
    }
    return rows;
}

bool prefixMatches(const MergedRow& row, DiffLane lane) {
    if (row.a.cumPacket != row.b.cumPacket) return false;
    if (lane == DiffLane::kPacketsOnly) return true;
    return row.a.cumDispatch == row.b.cumDispatch;
}

std::string describeInterval(const IntervalRecord* rec) {
    if (rec == nullptr) return "no activity recorded";
    std::ostringstream os;
    os << rec->dispatchCount << " dispatches, " << rec->packetCount << " packet ops";
    return os.str();
}

std::string formatBlackBoxEntry(const Recording& r, const BlackBoxEntry& e) {
    std::ostringstream os;
    os << "#" << e.seq << " t=" << e.tick << ' '
       << (e.kind == 'D' ? "dispatch" : "packet  ") << " [" << r.objectName(e.slot) << "] "
       << e.text;
    return os.str();
}

std::vector<std::string> neighborhood(const Recording& r, Tick lo, Tick hi) {
    std::vector<std::string> out;
    for (const BlackBoxEntry& e : r.blackBox) {
        if (e.tick < lo || e.tick >= hi) continue;
        out.push_back(formatBlackBoxEntry(r, e));
    }
    if (out.empty()) {
        if (r.blackBox.empty()) {
            out.push_back("(black box empty)");
        } else {
            std::ostringstream os;
            os << "(black box covers ticks " << r.blackBox.front().tick << ".."
               << r.blackBox.back().tick << ", outside the divergent window)";
            out.push_back(os.str());
        }
    }
    return out;
}

/// Pick the SimObject that owns the divergence inside one interval: among
/// objects whose (count, digest) rows differ between the sides — or that
/// dispatched on one side only — the one whose first dispatch in the
/// interval is earliest. Localization granularity is the interval width;
/// record with a small GEM5RTL_RECORD_INTERVAL for finer attribution.
std::string divergentObject(const Recording& a, const Recording& b,
                            const IntervalRecord* ra, const IntervalRecord* rb) {
    struct Side {
        const ObjEntry* a = nullptr;
        const ObjEntry* b = nullptr;
    };
    std::map<std::string, Side> byName;
    if (ra != nullptr) {
        for (const ObjEntry& e : ra->objects) byName[a.objectName(e.slot)].a = &e;
    }
    if (rb != nullptr) {
        for (const ObjEntry& e : rb->objects) byName[b.objectName(e.slot)].b = &e;
    }
    std::string best;
    Tick bestTick = 0;
    bool haveBest = false;
    for (const auto& [name, side] : byName) {
        const bool differs =
            side.a == nullptr || side.b == nullptr || side.a->count != side.b->count ||
            side.a->digest != side.b->digest;
        if (!differs) continue;
        Tick first = UINT64_MAX;
        if (side.a != nullptr) first = std::min(first, side.a->firstTick);
        if (side.b != nullptr) first = std::min(first, side.b->firstTick);
        if (!haveBest || first < bestTick) {
            haveBest = true;
            bestTick = first;
            best = name;
        }
    }
    return best;
}

}  // namespace

DivergenceReport findFirstDivergence(const Recording& a, const Recording& b, DiffLane lane) {
    DivergenceReport rep;
    if (a.intervalTicks != b.intervalTicks) {
        rep.comparable = false;
        std::ostringstream os;
        os << "interval widths differ (" << a.intervalTicks << " vs " << b.intervalTicks
           << " ticks); re-record with matching GEM5RTL_RECORD_INTERVAL";
        rep.error = os.str();
        return rep;
    }
    const Tick width = a.intervalTicks;

    const std::vector<MergedRow> rows = mergeIntervals(a, b);

    // Cumulative digests make "runs agree through row k" monotone in k, so
    // the first divergent interval is found with a binary search, not a
    // linear replay of both recordings.
    std::size_t lo = 0, hi = rows.size();
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (prefixMatches(rows[mid], lane)) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }

    if (lo == rows.size()) {
        // Every interval matches; the runs can still disagree past the last
        // digest (final tick, a tail shorter than one interval).
        const bool endDiffers =
            a.hasEnd != b.hasEnd ||
            (a.hasEnd && (a.finalTick != b.finalTick || a.totalPackets != b.totalPackets ||
                          a.finalPacketDigest != b.finalPacketDigest ||
                          (lane == DiffLane::kBoth &&
                           (a.totalDispatches != b.totalDispatches ||
                            a.finalDispatchDigest != b.finalDispatchDigest))));
        if (!endDiffers) return rep;  // Identical.
        rep.diverged = true;
        rep.lane = "end";
        if (!rows.empty()) {
            rep.intervalIndex = rows.back().index;
            rep.startTick = static_cast<Tick>(rep.intervalIndex) * width;
            rep.endTick = rep.startTick + width;
        }
        std::ostringstream os;
        if (a.hasEnd != b.hasEnd) {
            os << "one recording has no end record (crashed or still-running run): A "
               << (a.hasEnd ? "complete" : "truncated") << ", B "
               << (b.hasEnd ? "complete" : "truncated");
        } else {
            os << "all intervals match but run tails differ: finalTick " << a.finalTick
               << " vs " << b.finalTick << ", dispatches " << a.totalDispatches << " vs "
               << b.totalDispatches << ", packets " << a.totalPackets << " vs "
               << b.totalPackets;
        }
        rep.detail = os.str();
        rep.neighborhoodA = neighborhood(a, 0, UINT64_MAX);
        rep.neighborhoodB = neighborhood(b, 0, UINT64_MAX);
        return rep;
    }

    const MergedRow& row = rows[lo];
    rep.diverged = true;
    rep.intervalIndex = row.index;
    rep.startTick = static_cast<Tick>(row.index) * width;
    rep.endTick = rep.startTick + width;
    const bool packetDiffers = row.a.cumPacket != row.b.cumPacket;
    const bool dispatchDiffers =
        lane == DiffLane::kBoth && row.a.cumDispatch != row.b.cumDispatch;
    rep.lane = dispatchDiffers && !packetDiffers ? "dispatch"
               : packetDiffers && !dispatchDiffers ? "packet"
                                                   : "dispatch+packet";
    rep.objectName = divergentObject(a, b, row.a.rec, row.b.rec);
    std::ostringstream os;
    os << "A: " << describeInterval(row.a.rec) << " | B: " << describeInterval(row.b.rec);
    rep.detail = os.str();

    const Tick winLo = rep.startTick > width ? rep.startTick - width : 0;
    const Tick winHi = rep.endTick + width;
    rep.neighborhoodA = neighborhood(a, winLo, winHi);
    rep.neighborhoodB = neighborhood(b, winLo, winHi);
    return rep;
}

std::string formatDivergenceReport(const DivergenceReport& rep, const std::string& nameA,
                                   const std::string& nameB) {
    std::ostringstream os;
    if (!rep.comparable) {
        os << "g5r diff: recordings not comparable: " << rep.error << '\n';
        return os.str();
    }
    if (!rep.diverged) {
        os << "g5r diff: recordings identical\n";
        return os.str();
    }
    os << "g5r diff: first divergence in " << rep.lane << " lane at interval "
       << rep.intervalIndex << " (ticks [" << rep.startTick << ", " << rep.endTick << "))\n";
    if (!rep.objectName.empty()) os << "  owning SimObject: " << rep.objectName << '\n';
    if (!rep.detail.empty()) os << "  " << rep.detail << '\n';
    os << "  event neighborhood A (" << nameA << "):\n";
    for (const std::string& line : rep.neighborhoodA) os << "    " << line << '\n';
    os << "  event neighborhood B (" << nameB << "):\n";
    for (const std::string& line : rep.neighborhoodB) os << "    " << line << '\n';
    return os.str();
}

std::string divergenceReportJson(const DivergenceReport& rep, const std::string& nameA,
                                 const std::string& nameB) {
    exp::Json doc = exp::Json::object();
    doc["a"] = nameA;
    doc["b"] = nameB;
    doc["comparable"] = rep.comparable;
    doc["diverged"] = rep.diverged;
    if (!rep.comparable) {
        doc["error"] = rep.error;
        return doc.dump();
    }
    if (rep.diverged) {
        doc["lane"] = rep.lane;
        doc["intervalIndex"] = rep.intervalIndex;
        doc["startTick"] = static_cast<std::uint64_t>(rep.startTick);
        doc["endTick"] = static_cast<std::uint64_t>(rep.endTick);
        doc["objectName"] = rep.objectName;
        doc["detail"] = rep.detail;
        exp::Json na = exp::Json::array();
        for (const std::string& line : rep.neighborhoodA) na.push(line);
        doc["neighborhoodA"] = std::move(na);
        exp::Json nb = exp::Json::array();
        for (const std::string& line : rep.neighborhoodB) nb.push(line);
        doc["neighborhoodB"] = std::move(nb);
    }
    return doc.dump();
}

DivergenceReport diffRecordingFiles(const std::string& pathA, const std::string& pathB,
                                    DiffLane lane) {
    try {
        const Recording a = Recording::load(pathA);
        const Recording b = Recording::load(pathB);
        return findFirstDivergence(a, b, lane);
    } catch (const std::exception& e) {
        DivergenceReport rep;
        rep.comparable = false;
        rep.error = e.what();
        return rep;
    }
}

int diffCliMain(int argc, const char* const* argv) {
    bool packetsOnly = false, json = false;
    std::vector<std::string> paths;
    ArgParser args{"diff",
                   "usage: g5r diff [--packets-only] [--json] <a.g5rec> <b.g5rec>\n"
                   "  compares two flight recordings (GEM5RTL_RECORD sidecars) and\n"
                   "  reports the first divergent interval and owning SimObject.\n"
                   "  --packets-only  ignore the dispatch lane (gated-vs-ungated pairs)\n"
                   "  --json          one JSON report document on stdout\n"
                   "exit status: 0 identical, 1 diverged, 2 usage or incomparable inputs\n"};
    args.flag("--packets-only", packetsOnly).flag("--json", json).positional(paths);
    if (const auto exit = args.parse(argc, argv)) return *exit;
    if (paths.size() != 2) return args.usageError();

    const DivergenceReport rep = diffRecordingFiles(
        paths[0], paths[1], packetsOnly ? DiffLane::kPacketsOnly : DiffLane::kBoth);
    if (json) {
        std::cout << divergenceReportJson(rep, paths[0], paths[1]) << '\n';
    } else if (!rep.comparable) {
        return args.fail(rep.error);
    } else {
        std::cout << formatDivergenceReport(rep, paths[0], paths[1]);
    }
    return !rep.comparable ? 2 : (rep.diverged ? 1 : 0);
}

}  // namespace g5r::obs
