#include "obs/session.hh"

#include <algorithm>
#include <atomic>

#include "sim/sim_object.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"

namespace g5r::obs {

namespace {

/// File-system-safe run name: non-alphanumerics collapse to '_'.
std::string sanitize(std::string_view runName) {
    std::string out;
    out.reserve(runName.size());
    for (const char c : runName) {
        const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '-' || c == '_';
        out += keep ? c : '_';
    }
    return out;
}

std::string runFileBase(std::string_view runName) {
    std::string base = sanitize(runName);
    if (base.empty()) {
        // Parallel sweeps create many unnamed sessions; give each its own
        // file rather than corrupting a shared one.
        static std::atomic<std::uint64_t> counter{0};
        base = "run" + std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
    }
    return base;
}

std::string joinDir(const std::string& dir, std::string file) {
    std::string path = dir.empty() ? std::string{"."} : dir;
    if (path.back() != '/') path += '/';
    path += std::move(file);
    return path;
}

/// Call fn(suffix, hist) for every "latencyHist.<suffix>" histogram of
/// @p group, in registration order.
template <typename Fn>
void forEachPortLatency(const stats::Group& group, Fn&& fn) {
    static constexpr std::string_view kKey = "latencyHist.";
    for (const auto& stat : group.all()) {
        const auto* hist = dynamic_cast<const stats::Histogram*>(stat.get());
        if (hist == nullptr) continue;
        const std::string& name = hist->name();
        const auto pos = name.find(kKey);
        if (pos == std::string::npos) continue;
        if (pos != 0 && name[pos - 1] != '.') continue;
        fn(std::string_view{name}.substr(pos + kKey.size()), *hist);
    }
}

}  // namespace

std::vector<std::pair<std::string, LatencySummary>> portLatencies(const stats::Group& group) {
    std::vector<std::pair<std::string, LatencySummary>> out;
    forEachPortLatency(group, [&out](std::string_view suffix, const stats::Histogram& h) {
        out.emplace_back(std::string{suffix},
                         LatencySummary{h.count(), h.minValue(), h.mean(), h.maxValue(),
                                        h.quantile(0.50), h.quantile(0.99)});
    });
    return out;
}

stats::HistogramData mergedPortLatencyHistogram(const stats::Group& group) {
    stats::HistogramData merged;
    forEachPortLatency(group, [&merged](std::string_view, const stats::Histogram& h) {
        merged.merge(h.data());
    });
    return merged;
}

std::unique_ptr<ObsSession> ObsSession::create(Simulation& sim, const ObsOptions& opts,
                                               std::string_view runName) {
    if (!opts.anyEnabled()) return nullptr;
    return std::unique_ptr<ObsSession>(new ObsSession(sim, opts, runName));
}

ObsSession::ObsSession(Simulation& sim, const ObsOptions& opts, std::string_view runName)
    : sim_(sim),
      stride_(opts.profileStride ? opts.profileStride : 1),
      t0_(Clock::now()) {
    if (opts.profileEnabled) profiler_ = std::make_unique<HostProfiler>(stride_);
    const bool reqtraceToFile = opts.reqtraceEnabled && opts.reqtracePath != "-";
    const std::string base =
        (opts.traceEnabled || opts.recordEnabled || opts.metricsEnabled || reqtraceToFile)
            ? runFileBase(runName)
            : std::string{};
    if (opts.traceEnabled) {
        trace_ = std::make_unique<TraceSession>(joinDir(opts.traceDir, base + ".trace.json"));
    }
    if (opts.recordEnabled) {
        std::string path = !opts.recordPath.empty()
                               ? opts.recordPath
                               : joinDir(opts.recordDir, base + ".g5rec");
        recorder_ = std::make_unique<Recorder>(std::move(path), std::string{runName},
                                               opts.recordIntervalTicks, opts.blackBoxDepth);
    }
    if (opts.metricsEnabled) {
        std::string path = !opts.metricsPath.empty()
                               ? opts.metricsPath
                               : joinDir(opts.metricsDir, base + ".metrics.jsonl");
        metrics_ = std::make_unique<MetricsSession>(sim, std::move(path),
                                                    std::string{runName},
                                                    opts.metricsIntervalTicks);
    }
    if (opts.reqtraceEnabled) {
        // "-" selects in-memory collection (computeBlame without a sidecar).
        std::string path;
        if (opts.reqtracePath == "-") {
            path = "";
        } else if (!opts.reqtracePath.empty()) {
            path = opts.reqtracePath;
        } else {
            path = joinDir(opts.reqtraceDir, base + ".reqtrace.jsonl");
        }
        // Raw spans are kept only for a reader: the sidecar (always kept in
        // file mode) or the Perfetto trace's reqstage events. Stage blame
        // alone needs just the per-record unions folded as spans arrive.
        reqtrace_ = std::make_unique<ReqTraceSession>(std::move(path), std::string{runName},
                                                      /*keepSpans=*/opts.traceEnabled);
    }

    // Slot 0 catches events that belong to no object; object slots are
    // handed out lazily by slotFor().
    if (profiler_) profiler_->addSlot("(unattributed)");
    if (trace_) {
        trace_->processName(runName.empty() ? std::string_view{"g5r"} : runName);
        trace_->threadName(0, "(unattributed)");
    }
    if (recorder_) recorder_->noteObjectName(0, "(unattributed)");
    nextCounterTick_ = sim.curTick();
    sim.setObserver(this);
}

ObsSession::~ObsSession() {
    finish();
    if (sim_.observer() == this) sim_.setObserver(nullptr);
}

void ObsSession::addCounter(const stats::Stat& stat) { counters_.push_back(&stat); }

void ObsSession::finish() {
    if (finished_) return;
    finished_ = true;
    if (profiler_) report_ = std::make_shared<const ProfileReport>(profiler_->report());
    if (reqtrace_) {
        reqtrace_->finish(sim_.curTick());
        if (trace_) emitRequestSpans();
    }
    if (trace_) trace_->finish();
    if (recorder_) recorder_->finish(sim_.curTick());
    if (metrics_) metrics_->finish(sim_.curTick());
}

void ObsSession::emitRequestSpans() {
    // Requests live on their own track family, in *simulated* microseconds
    // (ticks are picoseconds), one track per stage plus a summary track.
    // Flow arrows link each root request to its descendants; their IDs are
    // offset into a high range so they never collide with packet flows.
    constexpr int kReqTidBase = 900;
    constexpr int kSummaryTid = kReqTidBase + static_cast<int>(kNumReqStages);
    constexpr std::uint64_t kFlowBase = std::uint64_t{1} << 62;
    constexpr double kTicksPerUs = 1e6;

    for (unsigned s = 0; s < kNumReqStages; ++s) {
        trace_->threadName(kReqTidBase + static_cast<int>(s),
                           std::string{"req:"} + reqStageName(static_cast<ReqStage>(s)));
    }
    trace_->threadName(kSummaryTid, "req:requests");

    const std::vector<ReqRecord>& records = reqtrace_->data();
    // id -> root id, walking parent chains (records are id-sorted, parents
    // precede children, so one pass suffices).
    std::vector<ReqId> rootOf;
    for (const ReqRecord& rec : records) {
        if (rec.id >= rootOf.size()) rootOf.resize(rec.id + 1, 0);
        rootOf[rec.id] = (rec.parent != 0 && rec.parent < rootOf.size() &&
                          rootOf[rec.parent] != 0)
                             ? rootOf[rec.parent]
                             : rec.id;
    }
    for (const ReqRecord& rec : records) {
        const Tick end = std::max(rec.ended ? rec.endTick : rec.beginTick, rec.unions.lastEnd);
        const double beginUs = static_cast<double>(rec.beginTick) / kTicksPerUs;
        trace_->completeEvent(kSummaryTid, rec.kind + "#" + std::to_string(rec.id),
                              "request", beginUs,
                              static_cast<double>(end - rec.beginTick) / kTicksPerUs,
                              rec.beginTick);
        const std::uint64_t flow = kFlowBase | rootOf[rec.id];
        if (rec.parent == 0) {
            trace_->flowBegin(flow, kSummaryTid, beginUs);
            trace_->flowEnd(flow, kSummaryTid, static_cast<double>(end) / kTicksPerUs);
        } else {
            trace_->flowStep(flow, kSummaryTid, beginUs);
        }
        for (const ReqSpan& span : rec.spans) {
            trace_->completeEvent(kReqTidBase + static_cast<int>(span.stage),
                                  reqStageName(span.stage), "reqstage",
                                  static_cast<double>(span.begin) / kTicksPerUs,
                                  static_cast<double>(span.end - span.begin) / kTicksPerUs,
                                  span.begin);
        }
    }
}

int ObsSession::slotFor(const SimObject& obj) {
    const auto it = slotByObject_.find(&obj);
    if (it != slotByObject_.end()) return it->second;
    const int slot = nextSlot_++;
    slotByObject_.emplace(&obj, slot);
    if (profiler_) profiler_->addSlot(obj.name());
    if (trace_) trace_->threadName(slot, obj.name());
    if (recorder_) recorder_->noteObjectName(slot, obj.name());
    return slot;
}

void ObsSession::runBegin() { runStart_ = Clock::now(); }

void ObsSession::runEnd() {
    if (profiler_) {
        profiler_->addRunSeconds(
            std::chrono::duration<double>(Clock::now() - runStart_).count());
    }
    // Flush a final counter sample so the tail interval — which may hold
    // most of a short run's activity — is not silently dropped.
    if (trace_ && !counters_.empty()) sampleCounters(sim_.curTick());
}

void ObsSession::dispatchBegin(const Event& ev, Tick when) {
    curTick_ = when;
    curSlot_ = ev.owner() != nullptr ? slotFor(*ev.owner()) : 0;
    if (profiler_) profiler_->countDispatch(curSlot_);
    if (recorder_) recorder_->recordDispatch(when, curSlot_, ev.name(), ev.nameDigest());
    if (trace_) curLabel_ = ev.name();
    if (trace_ && !counters_.empty() && when >= nextCounterTick_) sampleCounters(when);
    if (metrics_) metrics_->maybeSample(when);

    // Tracing needs every span timed; profiling alone only every Nth.
    timedThis_ = trace_ != nullptr;
    if (!timedThis_ && profiler_) {
        if (++strideCount_ >= stride_) {
            strideCount_ = 0;
            timedThis_ = true;
        }
    }
    if (timedThis_) dispatchStart_ = Clock::now();
}

void ObsSession::dispatchEnd(Tick /*when*/) {
    if (!timedThis_) return;
    const Clock::time_point end = Clock::now();
    const double seconds = std::chrono::duration<double>(end - dispatchStart_).count();
    if (trace_) {
        trace_->completeEvent(curSlot_, curLabel_, "dispatch", relUs(dispatchStart_),
                              seconds * 1e6, curTick_);
    }
    if (profiler_) profiler_->addSample(curSlot_, seconds);
    timedThis_ = false;
}

void ObsSession::sampleCounters(Tick when) {
    const double tsUs = relUs(Clock::now());
    for (const stats::Stat* stat : counters_) {
        trace_->counterEvent(stat->name(), tsUs, stat->value());
    }
    nextCounterTick_ = when + kCounterIntervalTicks;
}

void ObsSession::packetIssued(std::uint64_t id, std::uint64_t addr, unsigned size,
                              bool isRead) {
    if (trace_) trace_->flowBegin(id, curSlot_, relUs(Clock::now()));
    if (recorder_) recorder_->recordPacket(curTick_, curSlot_, 'I', id, addr, size, isRead);
}

void ObsSession::packetForwarded(std::uint64_t id) {
    if (trace_) trace_->flowStep(id, curSlot_, relUs(Clock::now()));
    if (recorder_) recorder_->recordPacket(curTick_, curSlot_, 'F', id, 0, 0, false);
}

void ObsSession::packetResponded(std::uint64_t id) {
    if (trace_) trace_->flowStep(id, curSlot_, relUs(Clock::now()));
    if (recorder_) recorder_->recordPacket(curTick_, curSlot_, 'R', id, 0, 0, false);
}

void ObsSession::packetCompleted(std::uint64_t id) {
    if (trace_) trace_->flowEnd(id, curSlot_, relUs(Clock::now()));
    if (recorder_) recorder_->recordPacket(curTick_, curSlot_, 'C', id, 0, 0, false);
}

void ObsSession::requestBegin(ReqId id, ReqId parent, const char* kind, Tick when) {
    if (reqtrace_) reqtrace_->onBegin(id, parent, kind, when);
}

void ObsSession::requestEnd(ReqId id, Tick when) {
    if (reqtrace_) reqtrace_->onEnd(id, when);
}

void ObsSession::requestSpan(ReqId id, ReqStage stage, Tick begin, Tick end) {
    if (reqtrace_) reqtrace_->onSpan(id, stage, begin, end);
}

}  // namespace g5r::obs
