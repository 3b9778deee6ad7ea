// `g5r critpath` — critical-path analysis over .reqtrace.jsonl sidecars.
//
//   `g5r critpath` [--json] [--waterfall[=N]] [--assert-sum] <trace.reqtrace.jsonl>
//
// Renders per-stage blame tables (aggregate ticks, share of end-to-end time,
// and share percentiles across root requests) and an optional per-request
// waterfall: one fixed-width glyph strip per root, each column showing the
// stage that owns that slice of the request's window under the blame
// precedence (reqtrace.hh). Exposed as library functions so tests can drive
// them without spawning processes.
//
// Exit status: 0 = analysed fine (and --assert-sum held), 1 = --assert-sum
// violated, 2 = usage error or unreadable trace.
#pragma once

#include <cstddef>
#include <string>

#include "obs/reqtrace.hh"

namespace g5r::exp { class Json; }

namespace g5r::obs {

/// Glyph used by the waterfall for @p stage (h/d/f/x/m/r/n; '.' is the
/// uncovered filler).
char reqStageGlyph(ReqStage stage);

/// Aggregate blame table: one row per stage (ticks, share of the summed
/// end-to-end time, p50/max share across roots) plus the unattributed row
/// and a 100.0% total line.
std::string renderBlameTable(const BlameSummary& blame);

/// Per-request waterfall over the first @p maxRequests roots (0 = all):
/// a @p width-column strip across each root's [begin, end] window, every
/// column labelled with the highest-precedence stage active at its midpoint.
std::string renderWaterfall(const std::vector<ReqRecord>& records,
                            const BlameSummary& blame, std::size_t maxRequests = 0,
                            std::size_t width = 64);

/// Machine-readable form: run metadata, per-root blame, aggregate ticks and
/// percent shares (shares of the summed root windows; they sum to 100).
exp::Json blameReportJson(const ReqTraceFile& file, const BlameSummary& blame);

/// `g5r critpath` (argv-style, argv[0] ignored). Writes to stdout / stderr;
/// returns the process exit status (0/1/2).
int critpathCliMain(int argc, const char* const* argv);

}  // namespace g5r::obs
