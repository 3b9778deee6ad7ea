// Configuration for the observability subsystem (src/obs/).
//
// Observability is off by default and costs nothing when off (see
// sim/observer.hh for the cost argument). It is switched on either
// programmatically — SocConfig carries an ObsOptions — or from the
// environment:
//
//   GEM5RTL_TRACE=1          write <run>.trace.json to the current directory
//   GEM5RTL_TRACE=<dir>      write it to <dir> (created by the caller)
//   GEM5RTL_TRACE=0          force tracing off
//   GEM5RTL_PROFILE=1        per-SimObject host-time profile
//   GEM5RTL_PROFILE_STRIDE=N time every Nth dispatch (default 1 = all)
//   GEM5RTL_RECORD=1         write <run>.g5rec flight recording here
//   GEM5RTL_RECORD=<dir>     write it to <dir> (created by the caller)
//   GEM5RTL_RECORD=0         force recording off
//   GEM5RTL_RECORD_INTERVAL=T digest interval in ticks
//   GEM5RTL_METRICS=1        write <run>.metrics.jsonl timeline here
//   GEM5RTL_METRICS=<dir>    write it to <dir> (created by the caller)
//   GEM5RTL_METRICS=0        force the metrics timeline off
//   GEM5RTL_METRICS_INTERVAL=T metrics sample interval in ticks
//   GEM5RTL_REQTRACE=1       write <run>.reqtrace.jsonl request trace here
//   GEM5RTL_REQTRACE=<dir>   write it to <dir> (created by the caller)
//   GEM5RTL_REQTRACE=0       force request tracing off
//
// N and T must be whole decimal numbers >= 1: a malformed or zero value
// exits 2 naming the variable rather than silently keeping the default.
#pragma once

#include <string>

#include "sim/ticks.hh"

namespace g5r::obs {

struct ObsOptions {
    /// Emit a Chrome trace-event JSON file (Perfetto-loadable).
    bool traceEnabled = false;

    /// Directory the trace file is written into ("." = current directory).
    std::string traceDir = ".";

    /// Attribute host wall time to SimObjects during run().
    bool profileEnabled = false;

    /// Time every Nth dispatch (>= 1). Dispatch *counts* stay exact; wall
    /// time is scaled up from the sampled subset, cutting the two
    /// steady_clock reads per dispatch to two per stride.
    unsigned profileStride = 1;

    /// Write a flight recording (.g5rec sidecar) of the dispatch and packet
    /// streams; see obs/recording.hh for the format.
    bool recordEnabled = false;

    /// Directory the recording is written into ("." = current directory).
    std::string recordDir = ".";

    /// Exact recording path; overrides recordDir when non-empty. Lets a
    /// harness record two runs of the same label to different files.
    std::string recordPath;

    /// Simulated-time interval covered by one digest record.
    Tick recordIntervalTicks = 1'000'000;  // 1 us of simulated time.

    /// Depth of the always-on black-box ring (last K dispatches/packets
    /// dumped by panic()). Active whenever recording is enabled.
    unsigned blackBoxDepth = 64;

    /// Write a metrics timeline (.metrics.jsonl sidecar): periodic
    /// delta-encoded snapshots of every stats::Group; see obs/metrics.hh.
    bool metricsEnabled = false;

    /// Directory the timeline is written into ("." = current directory).
    std::string metricsDir = ".";

    /// Exact timeline path; overrides metricsDir when non-empty.
    std::string metricsPath;

    /// Simulated-time interval between metrics samples.
    Tick metricsIntervalTicks = 1'000'000;  // 1 us of simulated time.

    /// Collect request-level causal spans (.reqtrace.jsonl sidecar) and
    /// critical-path stage blame; see obs/reqtrace.hh.
    bool reqtraceEnabled = false;

    /// Directory the request trace is written into ("." = current
    /// directory).
    std::string reqtraceDir = ".";

    /// Exact request-trace path; overrides reqtraceDir when non-empty. An
    /// explicit "-" keeps the trace in memory only (no sidecar) — the DSE
    /// harness uses this to compute stage blame without touching disk.
    std::string reqtracePath;

    bool anyEnabled() const {
        return traceEnabled || profileEnabled || recordEnabled || metricsEnabled ||
               reqtraceEnabled;
    }

    /// Overlay the GEM5RTL_* environment variables (see header comment)
    /// onto @p base. The environment wins where set, so a benchmark run
    /// can be traced without recompiling or editing its config.
    static ObsOptions fromEnv(ObsOptions base);
    static ObsOptions fromEnv();  ///< fromEnv() over all-default options.
};

}  // namespace g5r::obs
