// First-divergence finder over two flight recordings (obs/recording.hh).
//
// Cumulative interval digests make "do the runs agree through interval i?"
// a monotone predicate, so the finder binary-searches the merged interval
// index list for the first interval where the selected lanes' cumulative
// digests disagree, then drills into that interval's per-object rows (keyed
// by SimObject *name* — slot numbers are per-run) to name the owning object
// and pulls the event neighborhood out of both black boxes.
//
// Lane selection: jobs-1 vs jobs-N determinism checks compare both lanes;
// gated-vs-ungated identity checks compare the packet lane only, because
// quiescence gating changes the dispatch stream by design (DESIGN.md §8).
#pragma once

#include <string>
#include <vector>

#include "obs/recording.hh"

namespace g5r::obs {

enum class DiffLane {
    kBoth,         ///< Dispatch and packet lanes must both match.
    kPacketsOnly,  ///< Packet lane only (gated-vs-ungated comparisons).
};

struct DivergenceReport {
    /// False when the recordings cannot be compared at all (different
    /// interval widths); error holds the reason.
    bool comparable = true;
    std::string error;

    bool diverged = false;

    // Valid when diverged:
    std::string lane;  ///< "dispatch", "packet", or "end" (tail-only mismatch).
    std::uint64_t intervalIndex = 0;
    Tick startTick = 0;
    Tick endTick = 0;          ///< Exclusive.
    std::string objectName;    ///< Owning SimObject ("" when not localizable).
    std::string detail;        ///< One-line counts/digests summary of the interval.
    std::vector<std::string> neighborhoodA;  ///< Black-box lines near the divergence.
    std::vector<std::string> neighborhoodB;
};

/// Locate the first divergence between @p a and @p b.
DivergenceReport findFirstDivergence(const Recording& a, const Recording& b,
                                     DiffLane lane = DiffLane::kBoth);

/// Multi-line human-readable report; @p nameA / @p nameB label the sides.
std::string formatDivergenceReport(const DivergenceReport& rep, const std::string& nameA,
                                   const std::string& nameB);

/// Machine-readable form of the same report (`g5r diff --json`): one JSON
/// document with every DivergenceReport field, plus the side labels.
std::string divergenceReportJson(const DivergenceReport& rep, const std::string& nameA,
                                 const std::string& nameB);

/// Convenience: load both paths, diff, and format. Returns the report; any
/// load error comes back as comparable == false.
DivergenceReport diffRecordingFiles(const std::string& pathA, const std::string& pathB,
                                    DiffLane lane = DiffLane::kBoth);

/// `g5r diff` (argv-style, argv[0] ignored). --json puts even an
/// incomparable pair's report on stdout, so scripts never parse stderr.
/// Returns 0 identical, 1 diverged, 2 usage error or unreadable/incomparable
/// inputs.
int diffCliMain(int argc, const char* const* argv);

}  // namespace g5r::obs
