// ObsSession: the production SimObserver.
//
// One session per Simulation (and per thread — the one-thread-per-run model
// of src/exp/ carries over). It fans the observer callbacks out to up to
// three sinks, each individually optional:
//
//   * TraceSession  — Chrome/Perfetto trace: one "X" span per event
//     dispatch on the owning SimObject's track, counter samples on a
//     simulated-time interval, and flow arrows following each packet from
//     issue to completion.
//   * HostProfiler  — wall-time attribution per SimObject, folded into
//     rtl/memory/core/other/queue buckets for the fig. 6/7 overhead story.
//   * Recorder      — flight recording: interval digests of the dispatch
//     and packet streams to a .g5rec sidecar for `g5r diff`, plus the
//     black-box ring panic() dumps.
//
// Event -> SimObject attribution works by name: event names in this
// codebase are "<object>.<what>" ("system.membus.reqDeliver.dbbif"), so the
// longest registered object name that prefixes the event name (on a '.'
// boundary) owns the dispatch. The resolution is cached per Event*, making
// it a hash lookup on the hot path. (Caveat: the cache keys on the event's
// address, so a destroyed-then-reallocated event could inherit a stale
// owner; events here are long-lived members, and a mis-attributed span is
// an acceptable observability error.)
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hh"
#include "obs/options.hh"
#include "obs/profiler.hh"
#include "obs/recorder.hh"
#include "obs/reqtrace.hh"
#include "obs/trace_session.hh"
#include "sim/observer.hh"
#include "sim/stats.hh"

namespace g5r {
class SimObject;
class Simulation;
namespace stats {
class Group;
class Stat;
}  // namespace stats
}  // namespace g5r

namespace g5r::obs {

/// Compact view of one per-requestor "latencyHist.<suffix>" histogram, for
/// BENCH_*.json. Every field is read from that one histogram.
struct LatencySummary {
    std::uint64_t count = 0;
    double minTicks = 0.0;
    double meanTicks = 0.0;
    double maxTicks = 0.0;
    double p50Ticks = 0.0;
    double p99Ticks = 0.0;
};

/// All "latencyHist.<suffix>" histograms of a stats group (the per-master
/// round-trip histograms an Xbar maintains), keyed by suffix.
std::vector<std::pair<std::string, LatencySummary>> portLatencies(const stats::Group& group);

/// Fold every "latencyHist.<suffix>" histogram of @p group into one
/// SoC-wide latency histogram. The merge is exact (bucket counts add), so
/// quantiles of the result are the true quantiles of the union of all
/// per-master sample streams.
stats::HistogramData mergedPortLatencyHistogram(const stats::Group& group);

class ObsSession final : public SimObserver {
public:
    /// Build a session for @p sim per @p opts and attach it as the
    /// simulation's observer. Returns nullptr when nothing is enabled —
    /// callers hold a null unique_ptr and the simulation keeps its fast
    /// path. @p runName names the trace file ("" = generated).
    static std::unique_ptr<ObsSession> create(Simulation& sim, const ObsOptions& opts,
                                              std::string_view runName);

    ~ObsSession() override;
    ObsSession(const ObsSession&) = delete;
    ObsSession& operator=(const ObsSession&) = delete;

    /// Sample @p stat as a trace counter every counterIntervalTicks.
    void addCounter(const stats::Stat& stat);

    /// Flush and close the sinks; build the profile report. Idempotent,
    /// also run by the destructor.
    void finish();

    TraceSession* trace() { return trace_.get(); }
    Recorder* recorder() { return recorder_.get(); }
    MetricsSession* metrics() { return metrics_.get(); }
    ReqTraceSession* reqtrace() { return reqtrace_.get(); }
    bool profiling() const { return profiler_ != nullptr; }

    /// The profile report; non-null only after finish() when profiling.
    std::shared_ptr<const ProfileReport> profileReport() const { return report_; }

    // --- SimObserver --------------------------------------------------------
    void runBegin() override;
    void runEnd() override;
    void dispatchBegin(const Event& ev, Tick when) override;
    void dispatchEnd(Tick when) override;
    /// Request tracing alone needs no dispatch hook: its spans arrive
    /// through the component-driven request hooks, with their own ticks. So
    /// a session whose only sink is the request trace (the DSE harness's
    /// always-on stage blame) leaves the event queue unobserved, and the
    /// port layer's packet hooks too (observesPackets). The trace still
    /// costs its request hooks and computeBlame.
    bool observesDispatches() const override {
        return trace_ != nullptr || profiler_ != nullptr || recorder_ != nullptr ||
               metrics_ != nullptr;
    }
    /// Only the trace (flow arrows) and the recorder (packet lane) use the
    /// packet hooks; without them the port layer skips every per-hop call.
    bool observesPackets() const override { return trace_ != nullptr || recorder_ != nullptr; }
    void packetIssued(std::uint64_t id, std::uint64_t addr, unsigned size,
                      bool isRead) override;
    void packetForwarded(std::uint64_t id) override;
    void packetResponded(std::uint64_t id) override;
    void packetCompleted(std::uint64_t id) override;
    void requestBegin(ReqId id, ReqId parent, const char* kind, Tick when) override;
    void requestEnd(ReqId id, Tick when) override;
    void requestSpan(ReqId id, ReqStage stage, Tick begin, Tick end) override;

private:
    using Clock = std::chrono::steady_clock;

    struct Owner {
        int slot;
        std::string label;       ///< Span name: the event's own name.
        std::uint64_t labelHash;  ///< digestOf(label), for the recorder.
    };

    ObsSession(Simulation& sim, const ObsOptions& opts, std::string_view runName);

    const Owner& resolve(const Event& ev);
    int slotFor(const SimObject& obj);
    double relUs(Clock::time_point tp) const {
        return std::chrono::duration<double, std::micro>(tp - t0_).count();
    }
    void sampleCounters(Tick when);

    /// Translate the collected request records into Perfetto spans + flow
    /// arrows on the trace's dedicated "req:*" tracks (run at finish()).
    void emitRequestSpans();

    Simulation& sim_;
    std::unique_ptr<TraceSession> trace_;
    std::unique_ptr<HostProfiler> profiler_;
    std::unique_ptr<Recorder> recorder_;
    std::unique_ptr<MetricsSession> metrics_;
    std::unique_ptr<ReqTraceSession> reqtrace_;
    std::shared_ptr<const ProfileReport> report_;

    /// Slot 0 is "(unattributed)"; object slots are allocated lazily the
    /// first time an object's event dispatches, so SimObjects created
    /// after the session (attachRtlModel, host objects) are still
    /// attributed. Trace tids equal slot indices.
    std::unordered_map<const SimObject*, int> slotByObject_;
    int nextSlot_ = 1;
    std::unordered_map<const Event*, Owner> ownerCache_;

    std::vector<const stats::Stat*> counters_;
    Tick counterInterval_;
    Tick nextCounterTick_ = 0;

    unsigned stride_;
    unsigned strideCount_ = 0;
    bool timedThis_ = false;
    int curSlot_ = 0;
    const std::string* curLabel_ = nullptr;
    Tick curTick_ = 0;
    Clock::time_point t0_;
    Clock::time_point dispatchStart_;
    Clock::time_point runStart_;
    bool finished_ = false;
};

}  // namespace g5r::obs
