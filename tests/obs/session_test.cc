// ObsSession end-to-end: span/dispatch round trip, packet flows, profiling
// attribution, parallel sessions, and the CI trace-validation entry point.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/json.hh"
#include "mem/simple_mem.hh"
#include "obs/recording.hh"
#include "obs/session.hh"
#include "sim/simulation.hh"

namespace g5r::obs {
namespace {

std::string slurp(const std::string& path) {
    std::ifstream in{path};
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::size_t countPh(const exp::Json& doc, const std::string& ph) {
    std::size_t n = 0;
    for (const auto& ev : doc.at("traceEvents").items()) {
        if (ev.at("ph").asString() == ph) ++n;
    }
    return n;
}

// A requester that discards each response inside the receiving dispatch, so
// the packet's flow reaches its "f" (completed) event while the observer is
// still installed — matching how the SoC's masters consume responses.
class DroppingRequester : public SimObject {
public:
    DroppingRequester(Simulation& sim, std::string name)
        : SimObject(sim, std::move(name)),
          port_(this->name() + ".port", *this),
          issueEvent_(*this, "issue", [this] { issuePending(); }) {}

    RequestPort& port() { return port_; }

    void issueAt(Tick when, PacketPtr pkt) {
        sendQueue_.push_back(std::move(pkt));
        if (!issueEvent_.scheduled()) {
            eventQueue().schedule(issueEvent_, std::max(when, curTick()));
        }
    }

    std::size_t numResponses() const { return numResponses_; }

private:
    class Port final : public RequestPort {
    public:
        Port(std::string portName, DroppingRequester& owner)
            : RequestPort(std::move(portName)), owner_(owner) {}
        bool recvTimingResp(PacketPtr& pkt) override {
            pkt.reset();  // Packet dies here -> flow "f" lands in this span.
            ++owner_.numResponses_;
            return true;
        }
        void recvReqRetry() override {
            owner_.blocked_ = false;
            owner_.issuePending();
        }

    private:
        DroppingRequester& owner_;
    };

    void issuePending() {
        while (!blocked_ && !sendQueue_.empty()) {
            if (!port_.sendTimingReq(sendQueue_.front())) {
                blocked_ = true;
                return;
            }
            sendQueue_.pop_front();
        }
    }

    Port port_;
    CallbackEvent issueEvent_;
    std::deque<PacketPtr> sendQueue_;
    std::size_t numResponses_ = 0;
    bool blocked_ = false;
};

// One requester talking to one memory, with an ObsSession attached.
struct Harness {
    explicit Harness(const ObsOptions& opts, std::string_view runName) {
        SimpleMemory::Params p;
        p.range = AddrRange{0, 1ULL << 20};
        p.latency = 10'000;
        mem = std::make_unique<SimpleMemory>(sim, "system.mem0", p, store);
        req = std::make_unique<DroppingRequester>(sim, "system.cpu0");
        req->port().bind(mem->port());
        session = ObsSession::create(sim, opts, runName);
    }

    Simulation sim;
    BackingStore store;
    std::unique_ptr<SimpleMemory> mem;
    std::unique_ptr<DroppingRequester> req;
    std::unique_ptr<ObsSession> session;
};

ObsOptions traceOpts() {
    ObsOptions o;
    o.traceEnabled = true;
    o.traceDir = ::testing::TempDir();
    return o;
}

TEST(ObsSession, NothingEnabledYieldsNoSession) {
    Simulation sim;
    EXPECT_EQ(ObsSession::create(sim, ObsOptions{}, "off"), nullptr);
    EXPECT_EQ(sim.observer(), nullptr);
}

// The acceptance round trip: one "X" span per dispatched event, verified
// against the event queue's own count by re-parsing the emitted JSON.
TEST(ObsSession, SpanCountMatchesDispatchCount) {
    Harness h{traceOpts(), "session_spans"};
    ASSERT_NE(h.session, nullptr);
    ASSERT_NE(h.session->trace(), nullptr);
    ASSERT_TRUE(h.session->trace()->ok());
    for (int i = 0; i < 16; ++i) h.req->issueAt(0, makeReadPacket(0x100 + 64 * i, 64));
    h.sim.run();
    h.session->finish();

    const std::uint64_t dispatched = h.sim.eventQueue().numProcessed();
    EXPECT_GT(dispatched, 0u);
    EXPECT_EQ(h.session->trace()->spansWritten(), dispatched);

    const exp::Json doc = exp::Json::parse(slurp(h.session->trace()->path()));
    EXPECT_EQ(countPh(doc, "X"), dispatched);
    std::remove(h.session->trace()->path().c_str());
}

TEST(ObsSession, PacketFlowsBeginAndEndInBalance) {
    Harness h{traceOpts(), "session_flows"};
    constexpr int kReads = 12;
    for (int i = 0; i < kReads; ++i) h.req->issueAt(0, makeReadPacket(64 * i, 64));
    h.sim.run();
    h.session->finish();
    EXPECT_EQ(h.req->numResponses(), kReads);

    const exp::Json doc = exp::Json::parse(slurp(h.session->trace()->path()));
    EXPECT_EQ(countPh(doc, "s"), kReads);  // One flow per tracked request...
    EXPECT_EQ(countPh(doc, "f"), kReads);  // ...and every flow terminates.
    std::remove(h.session->trace()->path().c_str());
}

TEST(ObsSession, CountersSampleOnSimulatedTimeInterval) {
    Harness h{traceOpts(), "session_counters"};
    h.session->addCounter(*h.mem->statsGroup().find("numReads"));
    for (int i = 0; i < 8; ++i) h.req->issueAt(0, makeReadPacket(64 * i, 64));
    h.sim.run();
    h.session->finish();

    const exp::Json doc = exp::Json::parse(slurp(h.session->trace()->path()));
    bool sawCounter = false;
    for (const auto& ev : doc.at("traceEvents").items()) {
        if (ev.at("ph").asString() != "C") continue;
        sawCounter = true;
        EXPECT_EQ(ev.at("name").asString(), "system.mem0.numReads");
        EXPECT_TRUE(ev.at("args").contains("value"));
    }
    EXPECT_TRUE(sawCounter);
    std::remove(h.session->trace()->path().c_str());
}

TEST(ObsSession, TracksAreLabelledWithObjectNames) {
    Harness h{traceOpts(), "session_tracks"};
    h.req->issueAt(0, makeReadPacket(0x0, 64));
    h.sim.run();
    h.session->finish();

    const exp::Json doc = exp::Json::parse(slurp(h.session->trace()->path()));
    std::vector<std::string> names;
    for (const auto& ev : doc.at("traceEvents").items()) {
        if (ev.at("ph").asString() == "M") {
            names.push_back(ev.at("args").at("name").asString());
        }
    }
    // Slot 0 plus the two objects whose events dispatched.
    EXPECT_NE(std::find(names.begin(), names.end(), "system.mem0"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "system.cpu0"), names.end());
    std::remove(h.session->trace()->path().c_str());
}

TEST(ObsSession, ProfilerAttributesEveryDispatch) {
    ObsOptions opts;
    opts.profileEnabled = true;  // No trace: exercises the strided path too.
    opts.profileStride = 3;
    Harness h{opts, "session_profile"};
    ASSERT_NE(h.session, nullptr);
    EXPECT_TRUE(h.session->profiling());
    EXPECT_EQ(h.session->trace(), nullptr);
    for (int i = 0; i < 32; ++i) h.req->issueAt(0, makeReadPacket(64 * i, 64));
    h.sim.run();
    h.session->finish();

    const auto report = h.session->profileReport();
    ASSERT_NE(report, nullptr);
    EXPECT_EQ(report->dispatches, h.sim.eventQueue().numProcessed());
    EXPECT_EQ(report->stride, 3u);
    EXPECT_GT(report->runSeconds, 0.0);

    // Dispatch counts stay exact under striding, and every dispatch lands
    // in some entry (the memory and the requester, here).
    std::uint64_t attributed = 0;
    for (const auto& e : report->entries) {
        attributed += e.dispatches;
        EXPECT_LE(e.sampled, e.dispatches);
    }
    EXPECT_EQ(attributed, report->dispatches);

    // Buckets partition runSeconds.
    double total = 0.0;
    for (const auto& b : report->buckets()) total += b.seconds;
    EXPECT_NEAR(total, report->runSeconds, 1e-9);
}

// The --jobs N story: concurrent simulations, each with its own session,
// must produce one uncorrupted trace per run (TSan covers the data-race
// side; this covers file separation and well-formedness).
TEST(ObsSession, ParallelSessionsWriteDistinctValidTraces) {
    constexpr int kThreads = 3;
    std::vector<std::string> paths(kThreads);
    std::vector<std::uint64_t> dispatched(kThreads, 0);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &paths, &dispatched] {
            Harness h{traceOpts(), "session_par" + std::to_string(t)};
            for (int i = 0; i < 8 + 4 * t; ++i) {
                h.req->issueAt(0, makeReadPacket(64 * i, 64));
            }
            h.sim.run();
            h.session->finish();
            paths[static_cast<std::size_t>(t)] = h.session->trace()->path();
            dispatched[static_cast<std::size_t>(t)] = h.sim.eventQueue().numProcessed();
        });
    }
    for (auto& th : threads) th.join();

    for (int t = 0; t < kThreads; ++t) {
        SCOPED_TRACE("thread " + std::to_string(t));
        const exp::Json doc = exp::Json::parse(slurp(paths[static_cast<std::size_t>(t)]));
        EXPECT_EQ(countPh(doc, "X"), dispatched[static_cast<std::size_t>(t)]);
        std::remove(paths[static_cast<std::size_t>(t)].c_str());
    }
    // Each run got its own file.
    EXPECT_NE(paths[0], paths[1]);
    EXPECT_NE(paths[1], paths[2]);
}

TEST(ObsSession, DetachesFromSimulationOnDestruction) {
    Simulation sim;
    {
        auto session = ObsSession::create(sim, traceOpts(), "session_detach");
        ASSERT_NE(session, nullptr);
        EXPECT_EQ(sim.observer(), session.get());
        std::remove(session->trace()->path().c_str());
    }
    EXPECT_EQ(sim.observer(), nullptr);
}

// Request tracing alone needs no dispatch hook: the session stays the
// simulation's observer (run, packet and request hooks) while the event
// queue runs unobserved. Any other sink puts it back on every dispatch.
TEST(ObsSession, RequestTraceOnlySessionLeavesDispatchesUnobserved) {
    ObsOptions opts;
    opts.reqtraceEnabled = true;
    opts.reqtracePath = "-";
    {
        Simulation sim;
        const auto session = ObsSession::create(sim, opts, "reqtrace_only");
        ASSERT_NE(session, nullptr);
        EXPECT_EQ(sim.observer(), session.get());
        EXPECT_EQ(sim.eventQueue().observer(), nullptr);
    }
    opts.profileEnabled = true;
    Simulation sim;
    const auto session = ObsSession::create(sim, opts, "reqtrace_profiled");
    ASSERT_NE(session, nullptr);
    EXPECT_EQ(sim.eventQueue().observer(), session.get());
}

// A SimObject whose one event, named "<name>.<what>", fires @p times.
class Pulser : public SimObject {
public:
    Pulser(Simulation& sim, std::string name, std::string_view what, int times)
        : SimObject(sim, std::move(name)), left_(times), event_(*this, what, [this] {
              if (--left_ > 0) queue_->schedule(event_, queue_->curTick() + 1'000);
          }) {}

    /// Start firing on @p queue, which may belong to another simulation.
    void start(EventQueue& queue) {
        queue_ = &queue;
        queue.schedule(event_, 1'000);
    }

private:
    int left_;
    EventQueue* queue_ = nullptr;
    CallbackEvent event_;
};

ObsOptions allSinksOpts(const std::string& recordPath) {
    ObsOptions o = traceOpts();
    o.profileEnabled = true;
    o.recordEnabled = true;
    o.recordPath = recordPath;
    return o;
}

/// Dispatches per object name as the trace, the profile and the recorder
/// each attribute them.
struct Attribution {
    std::map<std::string, std::uint64_t> trace;
    std::map<std::string, std::uint64_t> profile;
    std::map<std::string, std::uint64_t> recorder;
};

Attribution attributionOf(ObsSession& session, const std::string& recordPath) {
    Attribution out;
    const exp::Json doc = exp::Json::parse(slurp(session.trace()->path()));
    std::map<std::int64_t, std::string> trackName;
    for (const auto& ev : doc.at("traceEvents").items()) {
        if (ev.at("ph").asString() == "M" && ev.at("name").asString() == "thread_name") {
            trackName[ev.at("tid").asInt()] = ev.at("args").at("name").asString();
        }
    }
    for (const auto& ev : doc.at("traceEvents").items()) {
        if (ev.at("ph").asString() == "X") ++out.trace[trackName.at(ev.at("tid").asInt())];
    }
    for (const auto& e : session.profileReport()->entries) {
        if (e.dispatches > 0) out.profile[e.name] = e.dispatches;
    }
    const Recording rec = Recording::load(recordPath);
    for (const auto& iv : rec.intervals) {
        for (const auto& obj : iv.objects) out.recorder[rec.objectName(obj.slot)] += obj.count;
    }
    return out;
}

// Attribution follows the event's constructor owner, not its name: an event
// named exactly like another object, and an event whose owner is not one of
// this simulation's objects, both land on their owner. An ownerless event
// lands in "(unattributed)" even though its name extends an object's name.
TEST(ObsSession, DispatchesAreAttributedToTheEventsOwner) {
    const std::string recordPath = ::testing::TempDir() + "/session_owner.g5rec";
    Simulation sim;
    Pulser dev{sim, "system.dev", "pulse", 3};
    SimObject decoy{sim, "system.dev.pulse"};
    Simulation other;
    Pulser foreign{other, "elsewhere", "tick", 2};
    int looseFired = 0;
    CallbackEvent loose{[&looseFired] { ++looseFired; }, "system.dev.loose"};
    auto session = ObsSession::create(sim, allSinksOpts(recordPath), "session_owner");
    dev.start(sim.eventQueue());
    foreign.start(sim.eventQueue());
    sim.eventQueue().schedule(loose, 500);
    sim.run();
    session->finish();
    ASSERT_EQ(looseFired, 1);

    const Attribution got = attributionOf(*session, recordPath);
    const std::map<std::string, std::uint64_t> want = {
        {"system.dev", 3}, {"elsewhere", 2}, {"(unattributed)", 1}};
    EXPECT_EQ(got.trace, want);
    EXPECT_EQ(got.profile, want);
    EXPECT_EQ(got.recorder, want);
    std::remove(session->trace()->path().c_str());
    std::remove(recordPath.c_str());
}

// dispatchEnd() must not read the event: a handler may destroy its own
// event while every sink is attached (the ASan job pins the contract), and
// the span still carries the dead event's name.
TEST(ObsSession, HandlerMayDestroyItsOwnEvent) {
    const std::string recordPath = ::testing::TempDir() + "/session_doomed.g5rec";
    Simulation sim;
    SimObject owner{sim, "system.owner"};
    std::unique_ptr<CallbackEvent> doomed;
    doomed = std::make_unique<CallbackEvent>(
        owner, "a-label-longer-than-any-small-string-buffer", [&doomed] { doomed.reset(); });
    auto session = ObsSession::create(sim, allSinksOpts(recordPath), "session_doomed");
    sim.eventQueue().schedule(*doomed, 1'000);
    sim.run();
    session->finish();
    EXPECT_EQ(doomed, nullptr);

    const exp::Json doc = exp::Json::parse(slurp(session->trace()->path()));
    std::vector<std::string> spans;
    for (const auto& ev : doc.at("traceEvents").items()) {
        if (ev.at("ph").asString() == "X") spans.push_back(ev.at("name").asString());
    }
    EXPECT_EQ(spans, std::vector<std::string>{
                         "system.owner.a-label-longer-than-any-small-string-buffer"});
    EXPECT_EQ(attributionOf(*session, recordPath).recorder,
              (std::map<std::string, std::uint64_t>{{"system.owner", 1}}));
    std::remove(session->trace()->path().c_str());
    std::remove(recordPath.c_str());
}

// Counts the packet hooks the port layer delivers.
class PacketSpy final : public SimObserver {
public:
    explicit PacketSpy(bool packets) : packets_(packets) {}
    void dispatchBegin(const Event&, Tick) override {}
    void dispatchEnd(Tick) override {}
    bool observesDispatches() const override { return false; }
    bool observesPackets() const override { return packets_; }
    void packetIssued(std::uint64_t, std::uint64_t, unsigned, bool) override { ++calls; }
    void packetForwarded(std::uint64_t) override { ++calls; }
    void packetResponded(std::uint64_t) override { ++calls; }
    void packetCompleted(std::uint64_t) override { ++completed; }
    int calls = 0;
    int completed = 0;

private:
    bool packets_;
};

// An observer that declines packets gets no per-hop calls and no packet is
// flow-tracked (so none reports completion); one that wants them gets a
// balanced lifecycle per request. A request-trace-only session declines.
TEST(ObsSession, PacketHooksReachOnlyObserversThatWantThem) {
    for (const bool packets : {false, true}) {
        SCOPED_TRACE(packets ? "observes packets" : "declines packets");
        Harness h{ObsOptions{}, "packet_spy"};
        PacketSpy spy{packets};
        h.sim.setObserver(&spy);
        constexpr int kReads = 8;
        for (int i = 0; i < kReads; ++i) h.req->issueAt(0, makeReadPacket(64 * i, 64));
        h.sim.run();
        h.sim.setObserver(nullptr);
        EXPECT_EQ(h.req->numResponses(), kReads);
        EXPECT_EQ(spy.calls, packets ? 2 * kReads : 0);  // Issued + responded.
        EXPECT_EQ(spy.completed, packets ? kReads : 0);
    }

    ObsOptions opts;
    opts.reqtraceEnabled = true;
    opts.reqtracePath = "-";
    Simulation sim;
    const auto reqtraceOnly = ObsSession::create(sim, opts, "reqtrace_only");
    EXPECT_FALSE(reqtraceOnly->observesPackets());
    opts.recordEnabled = true;
    opts.recordPath = ::testing::TempDir() + "/packet_hooks.g5rec";
    Simulation recorded;
    const auto withRecorder = ObsSession::create(recorded, opts, "recorded");
    EXPECT_TRUE(withRecorder->observesPackets());
}

// CI entry point: after running examples/obs_profile with GEM5RTL_TRACE,
// the workflow points G5R_TRACE_CHECK_FILE at the emitted trace and runs
// --gtest_filter=TraceCheck.*; locally (env unset) the check skips.
TEST(TraceCheck, EmittedTraceFileIsValid) {
    const char* path = std::getenv("G5R_TRACE_CHECK_FILE");
    if (path == nullptr || *path == '\0') {
        GTEST_SKIP() << "G5R_TRACE_CHECK_FILE not set";
    }
    const std::string text = slurp(path);
    ASSERT_FALSE(text.empty()) << "trace file missing or empty: " << path;
    exp::Json doc;
    ASSERT_NO_THROW(doc = exp::Json::parse(text)) << "trace is not valid JSON";
    ASSERT_TRUE(doc.contains("traceEvents"));
    ASSERT_TRUE(doc.at("traceEvents").isArray());
    EXPECT_GT(countPh(doc, "X"), 0u) << "no dispatch spans in trace";
    EXPECT_EQ(countPh(doc, "s"), countPh(doc, "f")) << "unbalanced packet flows";
    for (const auto& ev : doc.at("traceEvents").items()) {
        ASSERT_TRUE(ev.contains("ph"));
        ASSERT_TRUE(ev.contains("pid"));
    }
}

}  // namespace
}  // namespace g5r::obs
