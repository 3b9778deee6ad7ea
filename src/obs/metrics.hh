// obs::MetricsSession — the quantitative metrics timeline.
//
// Where TraceSession answers "what happened when" with host-time spans, the
// metrics session answers "what did the counters look like over simulated
// time": on a simulated-tick interval it snapshots every stats::Group of the
// simulation into one line of an append-only JSONL file.
//
// Format (one JSON document per line):
//
//   header   {"g5rMetrics":1,"schema":1,"run":"<label>","intervalTicks":N}
//   sample   {"t":<tick>,"d":{"<channel>":<delta>,...}}
//   footer   {"end":<tick>,"samples":<count>}
//
// Channels are flat numeric series derived from the stats:
//
//   Scalar / Formula  ->  "<obj>.<stat>"
//   Histogram         ->  ".count" / ".p50" / ".p99" / ".p999" sub-channels
//
// Samples are delta-encoded: each line carries only the channels whose value
// changed since the previous sample, as (current - previous). Readers
// reconstruct absolute series by cumulative sum from an implicit 0 — which
// also round-trips a stats reset mid-run as a negative delta. Nothing
// host-dependent (wall time, pointers) is ever written, so timelines of the
// same run are byte-identical at any --jobs count.
//
// Cost: zero when disabled (no MetricsSession is constructed and ObsSession
// may not be either — the simulation keeps its no-observer fast path). When
// enabled the per-dispatch cost is one tick comparison; the snapshot work is
// paid once per interval.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/ticks.hh"

namespace g5r {
class Simulation;
namespace stats { class Stat; }
}  // namespace g5r

namespace g5r::obs {

class MetricsSession {
public:
    /// Timeline format version, written into the header line.
    static constexpr int kSchema = 1;

    /// Open @p path for writing. An unopenable path degrades to
    /// ok()==false and every subsequent call is a no-op — the run survives
    /// (same contract as the flight recorder).
    MetricsSession(Simulation& sim, std::string path, std::string runLabel,
                   Tick intervalTicks);
    ~MetricsSession();
    MetricsSession(const MetricsSession&) = delete;
    MetricsSession& operator=(const MetricsSession&) = delete;

    bool ok() const { return ok_; }
    const std::string& path() const { return path_; }
    std::uint64_t samplesWritten() const { return samples_; }

    /// Hot-path gate, called per dispatch by ObsSession: one comparison
    /// until the next interval boundary.
    void maybeSample(Tick when) {
        if (when >= nextTick_) sampleAt(when);
    }

    /// Snapshot all stats now and advance the interval clock.
    void sampleAt(Tick when);

    /// Final tail sample + footer line; closes the file. Idempotent, also
    /// run by the destructor.
    void finish(Tick finalTick);

private:
    /// One numeric series: a name and how to read its current value.
    struct Channel {
        std::string name;
        std::function<double()> read;
        double prev = 0.0;
    };

    /// Pick up stats registered since the last sample (SimObjects and stats
    /// can be created after the session).
    void refreshChannels();

    Simulation& sim_;
    std::string path_;
    std::ofstream out_;
    bool ok_ = false;
    Tick interval_;
    Tick nextTick_ = 0;
    std::uint64_t samples_ = 0;
    bool finished_ = false;

    std::vector<Channel> channels_;
    std::unordered_set<const stats::Stat*> seen_;
};

// ---------------------------------------------------------------- reading --

/// One decoded sample line.
struct MetricsSample {
    Tick tick = 0;
    std::vector<std::pair<std::string, double>> deltas;  ///< Insertion order.
};

/// A fully parsed timeline file.
struct MetricsTimeline {
    int schema = 0;
    std::string run;
    Tick intervalTicks = 0;
    Tick endTick = 0;
    std::uint64_t declaredSamples = 0;  ///< From the footer.
    std::vector<MetricsSample> samples;

    /// Every channel name that ever appears, in first-appearance order.
    std::vector<std::string> channels() const;

    /// Absolute series for @p channel: cumulative sum of its deltas,
    /// carried forward across samples that omit it. One point per sample.
    std::vector<std::pair<Tick, double>> series(std::string_view channel) const;

    /// Final absolute value of @p channel (0 if never emitted).
    double finalValue(std::string_view channel) const;
};

/// Parse a timeline written by MetricsSession. Throws std::runtime_error on
/// unreadable files or malformed lines.
MetricsTimeline readMetricsTimeline(const std::string& path);

}  // namespace g5r::obs
