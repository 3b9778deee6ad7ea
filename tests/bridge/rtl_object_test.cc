// RTLObject integration: shared-library loading (dlopen), device-channel
// transactions, model-initiated memory traffic with the in-flight cap, TLB
// translation, clock ratios, interrupts, and a full NVDLA-over-SoC run.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "bridge/rtl_object.hh"
#include "common/flaky_forwarder.hh"
#include "common/test_requester.hh"
#include "mem/simple_mem.hh"
#include "mem/xbar.hh"
#include "models/nvdla/trace.hh"
#include "models/pmu/pmu_design.hh"
#include "obs/diff.hh"
#include "obs/session.hh"
#include "soc/nvdla_host.hh"

#ifndef G5R_MODEL_DIR
#error "tests must be compiled with -DG5R_MODEL_DIR"
#endif

namespace g5r {
namespace {

std::string modelPath(const std::string& lib) {
    return std::string{G5R_MODEL_DIR} + "/" + lib;
}

TEST(SharedLibModel, LoadsAllThreeModelLibraries) {
    const auto pmu = SharedLibModel::load(modelPath("libpmu_rtl.so"), "");
    EXPECT_STREQ(pmu->modelName(), "pmu");
    const auto nvdla = SharedLibModel::load(modelPath("libnvdla_rtl.so"), "");
    EXPECT_STREQ(nvdla->modelName(), "nvdla");
    const auto bitonic = SharedLibModel::load(modelPath("libbitonic_rtl.so"), "n=8");
    EXPECT_STREQ(bitonic->modelName(), "bitonic");
}

TEST(SharedLibModel, MissingLibraryThrows) {
    EXPECT_THROW(SharedLibModel::load("/nonexistent/libfoo.so", ""), std::runtime_error);
}

// ------------------------------------------------------------- PMU-on-SoC --

struct PmuHarness {
    PmuHarness(Tick rtlPeriod = periodFromGHz(1), bool gateIdleTicks = true) {
        RtlObjectParams params;
        params.clockPeriod = rtlPeriod;
        params.gateIdleTicks = gateIdleTicks;
        rtl = std::make_unique<RtlObject>(
            sim, "pmu_obj", params,
            SharedLibModel::load(modelPath("libpmu_rtl.so"), ""), &bus);
        req = std::make_unique<testing::TestRequester>(sim, "host");
        req->port().bind(rtl->cpuSidePort(0));
    }

    void writeReg(std::uint64_t addr, std::uint64_t data) {
        auto pkt = makeWritePacket(addr, 8);
        pkt->set<std::uint64_t>(data);
        req->issueAt(sim.curTick(), std::move(pkt));
        runUntilResponses();
    }

    std::uint64_t readReg(std::uint64_t addr) {
        req->issueAt(sim.curTick(), makeReadPacket(addr, 8));
        runUntilResponses();
        return req->responses().back().pkt->get<std::uint64_t>();
    }

    void runUntilResponses() {
        // RTLObject ticks forever; advance bounded slices until idle.
        for (int slice = 0; slice < 1000 && !req->allResponsesReceived(); ++slice) {
            sim.run(sim.curTick() + 10'000);
        }
        ASSERT_TRUE(req->allResponsesReceived());
    }

    void runCycles(std::uint64_t rtlCycles, Tick rtlPeriod = periodFromGHz(1)) {
        sim.run(sim.curTick() + rtlCycles * rtlPeriod);
    }

    Simulation sim;
    HwEventBus bus;
    std::unique_ptr<RtlObject> rtl;
    std::unique_ptr<testing::TestRequester> req;
};

TEST(RtlObjectPmu, DeviceChannelReadsAndWrites) {
    PmuHarness h;
    EXPECT_EQ(h.readReg(models::PmuDesign::kIdReg), models::PmuDesign::kIdRegValue);
    h.writeReg(models::PmuDesign::kEnableReg, 0x3F);
    EXPECT_EQ(h.readReg(models::PmuDesign::kEnableReg), 0x3Fu);
    EXPECT_GT(h.sim.findStat("pmu_obj.devReads")->value(), 0.0);
    EXPECT_GT(h.sim.findStat("pmu_obj.devWrites")->value(), 0.0);
}

TEST(RtlObjectPmu, EventBusPulsesReachTheModel) {
    PmuHarness h;
    h.writeReg(models::PmuDesign::kEnableReg, 1);  // Counter 0 on commit lane 0.
    for (int i = 0; i < 25; ++i) h.bus.pulse(HwEventBus::kCommit0);
    h.runCycles(20);  // Pulses drain on the next ticks.
    EXPECT_EQ(h.readReg(models::PmuDesign::kCounterBase), 25u);
}

TEST(RtlObjectPmu, CycleCounterTracksRtlClock) {
    PmuHarness h;
    h.writeReg(models::PmuDesign::kEnableReg, 1u << HwEventBus::kCycle);
    const std::uint64_t before = h.readReg(models::PmuDesign::kCounterBase +
                                           8 * HwEventBus::kCycle);
    h.runCycles(1000);
    const std::uint64_t after = h.readReg(models::PmuDesign::kCounterBase +
                                          8 * HwEventBus::kCycle);
    EXPECT_NEAR(static_cast<double>(after - before), 1000.0, 30.0);
}

TEST(RtlObjectPmu, ClockRatioHalvesTicks) {
    // Free-running comparison: an unconfigured PMU is quiescent, so idle
    // gating must be off for the tick counts to track the clock ratio.
    PmuHarness fast{periodFromGHz(2), /*gateIdleTicks=*/false};
    PmuHarness slow{periodFromGHz(1), /*gateIdleTicks=*/false};
    fast.sim.run(1'000'000);  // 1 us.
    slow.sim.run(1'000'000);
    const double fastTicks = fast.sim.findStat("pmu_obj.ticks")->value();
    const double slowTicks = slow.sim.findStat("pmu_obj.ticks")->value();
    EXPECT_NEAR(fastTicks / slowTicks, 2.0, 0.05);
}

TEST(RtlObjectPmu, ThresholdInterruptReachesTheCallback) {
    PmuHarness h;
    int edges = 0;
    bool level = false;
    h.rtl->setIrqCallback([&](bool l) {
        ++edges;
        level = l;
    });
    h.writeReg(models::PmuDesign::kEnableReg, 1u << HwEventBus::kCycle);
    h.writeReg(models::PmuDesign::kThresholdSelReg, HwEventBus::kCycle);
    h.writeReg(models::PmuDesign::kThresholdReg, 100);
    h.runCycles(300);
    EXPECT_GE(edges, 1);
    EXPECT_TRUE(level);
    EXPECT_TRUE(h.rtl->irqLevel());
    // Clearing the IRQ drops the line.
    h.writeReg(models::PmuDesign::kIrqStatusReg, 0);
    h.runCycles(5);
    EXPECT_FALSE(h.rtl->irqLevel());
}

// ----------------------------------------------------------- NVDLA-on-SoC --

/// Forwards to a real model and counts what the bridge hands it.
class CountingModel final : public RtlModel {
public:
    explicit CountingModel(std::unique_ptr<RtlModel> inner) : inner_(std::move(inner)) {}
    const char* modelName() const override { return inner_->modelName(); }
    std::uint32_t abiVersion() const override { return inner_->abiVersion(); }
    void reset() override { inner_->reset(); }
    void tick(const G5rRtlInput& in, G5rRtlOutput& out) override {
        ++calls;
        skipped += in.skipped_cycles;
        inner_->tick(in, out);
    }
    bool traceStart(const std::string& vcdPath) override { return inner_->traceStart(vcdPath); }
    void traceStop() override { inner_->traceStop(); }

    std::uint64_t calls = 0;    ///< tick() calls, i.e. tick events dispatched.
    std::uint64_t skipped = 0;  ///< Skipped cycles handed over in them.

private:
    std::unique_ptr<RtlModel> inner_;
};

models::NvdlaShape tinyShape() {
    models::NvdlaShape s;
    s.width = s.height = 16;
    s.inChannels = s.outChannels = 8;
    s.filterH = s.filterW = 1;
    s.refetch = 1;
    return s;
}

/// Four ifmap stripes of a 3x3 convolution: compute on one stripe overlaps
/// the reads of the next, so stalls happen with compute running.
models::NvdlaShape stripedShape() {
    models::NvdlaShape s = tinyShape();
    s.width = s.height = 32;
    s.outChannels = 16;
    s.filterH = s.filterW = 3;
    return s;
}

struct NvdlaSocHarness {
    static constexpr Addr kCsbBase = 0x6000'0000;

    /// A non-empty @p recordPath flight-records the run there.
    explicit NvdlaSocHarness(unsigned maxInflight = 64, bool useTlb = false,
                             bool gateIdleTicks = true, bool flakyMemPath = false,
                             const std::string& recordPath = {},
                             const models::NvdlaShape& shape = tinyShape()) {
        trace = models::sharedConvTrace("nvdla_soc", shape, models::NvdlaPlacement{}, 21);

        xbar = std::make_unique<Xbar>(sim, "xbar", Xbar::Params{});
        SimpleMemory::Params mp;
        mp.range = AddrRange{0, 1ULL << 30};
        mp.latency = 50'000;  // 50 ns.
        mem = std::make_unique<SimpleMemory>(sim, "mem", mp, store);

        if (useTlb) {
            tlb = std::make_unique<Tlb>(sim, "tlb");
            // Model addresses are "virtual": shift everything up 1 MiB (disjoint from the virtual regions).
            for (const auto& seg : trace->segments) {
                tlb->map(seg.addr, seg.addr + 0x0010'0000, seg.bytes.size());
            }
            tlb->map(trace->placement.ofmapBase, trace->placement.ofmapBase + 0x0010'0000,
                     shape.ofmapBytes());
        }

        RtlObjectParams rp;
        rp.maxInflight = maxInflight;
        rp.translate = useTlb;
        rp.gateIdleTicks = gateIdleTicks;
        auto model = std::make_unique<CountingModel>(
            SharedLibModel::load(modelPath("libnvdla_rtl.so"), ""));
        counter = model.get();
        rtl = std::make_unique<RtlObject>(sim, "nvdla0", rp, std::move(model), nullptr,
                                          tlb.get());

        NvdlaHost::Params hp;
        hp.csbBase = kCsbBase;
        host = std::make_unique<NvdlaHost>(sim, "host", hp, trace);
        host->setDoneCallback([this] { sim.exitSimLoop("nvdla done"); });

        host->port().bind(xbar->addCpuSidePort("host"));
        if (flakyMemPath) {
            // Splice a retry-injecting stage into the DBBIF path.
            flaky = std::make_unique<testing::FlakyForwarder>(sim, "flaky");
            rtl->memSidePort(0).bind(flaky->cpuSidePort());
            flaky->memSidePort().bind(xbar->addCpuSidePort("dla_dbbif"));
        } else {
            rtl->memSidePort(0).bind(xbar->addCpuSidePort("dla_dbbif"));
        }
        rtl->memSidePort(1).bind(xbar->addCpuSidePort("dla_sramif"));
        xbar->addMemSidePort("mem", RouteSpec{mp.range}).bind(mem->port());
        xbar->addMemSidePort("csb", RouteSpec{AddrRange{kCsbBase, kCsbBase + 0x1000}})
            .bind(rtl->cpuSidePort(0));

        if (!recordPath.empty()) {
            obs::ObsOptions opts;
            opts.recordEnabled = true;
            opts.recordPath = recordPath;
            obsSession = obs::ObsSession::create(sim, opts, "nvdla_soc");
        }
    }

    RunResult run() {
        const RunResult result = sim.run(sim.curTick() + 500'000'000'000ULL);
        if (obsSession != nullptr) obsSession->finish();
        return result;
    }

    double stat(const std::string& name) const {
        return sim.findStat("nvdla0." + name)->value();
    }
    stats::HistogramData hist(const std::string& name) const {
        return dynamic_cast<const stats::Histogram&>(*sim.findStat("nvdla0." + name)).data();
    }

    Simulation sim;
    BackingStore store;
    std::shared_ptr<const models::NvdlaTrace> trace;
    std::unique_ptr<Xbar> xbar;
    std::unique_ptr<SimpleMemory> mem;
    std::unique_ptr<Tlb> tlb;
    std::unique_ptr<testing::FlakyForwarder> flaky;
    std::unique_ptr<RtlObject> rtl;
    CountingModel* counter = nullptr;
    std::unique_ptr<NvdlaHost> host;
    std::unique_ptr<obs::ObsSession> obsSession;
};

TEST(RtlObjectNvdla, EndToEndTraceRunVerifiesChecksum) {
    NvdlaSocHarness h;
    const auto result = h.run();
    EXPECT_EQ(result.cause, ExitCause::kSimExit);
    EXPECT_TRUE(h.host->finished());
    EXPECT_TRUE(h.host->checksumOk())
        << "read 0x" << std::hex << h.host->checksumRead() << " expected 0x"
        << h.trace->expectedChecksum;
    // The ofmap landed in memory.
    EXPECT_EQ(h.store.load<std::uint8_t>(h.trace->placement.ofmapBase + 5), 5);
    EXPECT_GT(h.sim.findStat("nvdla0.memReads")->value(), 0.0);
    EXPECT_GT(h.sim.findStat("nvdla0.memWrites")->value(), 0.0);
}

TEST(RtlObjectNvdla, InflightCapIsRespected) {
    NvdlaSocHarness h{4};
    h.run();
    ASSERT_TRUE(h.host->finished());
    const auto* hist = dynamic_cast<const stats::Histogram*>(
        h.sim.findStat("nvdla0.outstandingHist"));
    ASSERT_NE(hist, nullptr);
    EXPECT_LE(hist->maxValue(), 4.0);
    EXPECT_GT(h.sim.findStat("nvdla0.zeroCreditTicks")->value(), 0.0);
}

TEST(RtlObjectNvdla, MoreCreditsFinishFaster) {
    NvdlaSocHarness starved{1};
    NvdlaSocHarness fed{64};
    starved.run();
    fed.run();
    ASSERT_TRUE(starved.host->finished());
    ASSERT_TRUE(fed.host->finished());
    EXPECT_GT(starved.host->finishTick(), 2 * fed.host->finishTick());
}

TEST(RtlObjectNvdla, TlbTranslationRedirectsTraffic) {
    NvdlaSocHarness h{64, /*useTlb=*/true};
    // Load the segments at their *physical* (translated) locations too,
    // since the host's functional loads are untranslated in this test.
    for (const auto& seg : h.trace->segments) {
        h.store.write(seg.addr + 0x0010'0000, seg.bytes.data(),
                      static_cast<unsigned>(seg.bytes.size()));
    }
    h.run();
    ASSERT_TRUE(h.host->finished());
    EXPECT_TRUE(h.host->checksumOk());
    // The ofmap appears at the translated address.
    EXPECT_EQ(h.store.load<std::uint8_t>(h.trace->placement.ofmapBase + 0x0010'0000 + 7), 7);
    EXPECT_GT(h.sim.findStat("tlb.lookups")->value(), 0.0);
    EXPECT_GT(h.sim.findStat("tlb.hits")->value(), 0.0);
}

// ------------------------------------------------- quiescence tick gating --

TEST(RtlObjectGating, IdlePmuGatesAndWakesOnDeviceRequest) {
    PmuHarness h;  // Unconfigured PMU: quiescent from the first tick.
    h.sim.run(1'000'000);  // 1 us = 1000 RTL cycles at 1 GHz.
    EXPECT_TRUE(h.rtl->isGated());
    EXPECT_LT(h.sim.findStat("pmu_obj.ticks")->value(), 50.0);
    // A device request wakes it; the read works and accounts skipped cycles.
    EXPECT_EQ(h.readReg(models::PmuDesign::kIdReg), models::PmuDesign::kIdRegValue);
    EXPECT_GT(h.rtl->gatedTicks(), 900u);
}

TEST(RtlObjectGating, BusPulseWakesGatedPmu) {
    PmuHarness h;
    h.sim.run(1'000'000);
    ASSERT_TRUE(h.rtl->isGated());
    const double ticksBefore = h.sim.findStat("pmu_obj.ticks")->value();
    h.bus.pulse(HwEventBus::kCommit0);  // Empty->non-empty fires the wake.
    EXPECT_FALSE(h.rtl->isGated());
    h.sim.run(h.sim.curTick() + 10'000);
    EXPECT_GT(h.sim.findStat("pmu_obj.ticks")->value(), ticksBefore);
    // Mask is 0, so the pulse counts nothing and the PMU re-gates.
    EXPECT_TRUE(h.rtl->isGated());
}

// One scripted PMU session; returns every architecturally visible
// observable, including the exact arrival tick of every device response.
struct PmuScriptResult {
    std::vector<Tick> responseTicks;
    std::uint64_t counterAfterPulses = 0;
    std::uint64_t counterAfterIdle = 0;
    std::uint64_t gated = 0;
};

PmuScriptResult runPmuScript(bool gate) {
    PmuHarness h{periodFromGHz(1), gate};
    h.writeReg(models::PmuDesign::kEnableReg, 1);  // Counter 0 on commit0.
    for (int i = 0; i < 25; ++i) h.bus.pulse(HwEventBus::kCommit0);
    h.runCycles(20);
    PmuScriptResult r;
    r.counterAfterPulses = h.readReg(models::PmuDesign::kCounterBase);
    h.writeReg(models::PmuDesign::kEnableReg, 0);  // Now idle-eligible.
    h.sim.run(h.sim.curTick() + 500'000);          // Long idle stretch.
    h.bus.pulse(HwEventBus::kCommit0);             // Ignored (mask 0) but wakes.
    h.runCycles(20);
    r.counterAfterIdle = h.readReg(models::PmuDesign::kCounterBase);
    for (const auto& resp : h.req->responses()) r.responseTicks.push_back(resp.tick);
    r.gated = h.rtl->gatedTicks();
    return r;
}

TEST(RtlObjectGating, PmuTimingIsByteIdenticalGatedVsUngated) {
    const PmuScriptResult gated = runPmuScript(true);
    const PmuScriptResult ungated = runPmuScript(false);
    EXPECT_EQ(gated.responseTicks, ungated.responseTicks);
    EXPECT_EQ(gated.counterAfterPulses, ungated.counterAfterPulses);
    EXPECT_EQ(gated.counterAfterIdle, ungated.counterAfterIdle);
    EXPECT_EQ(gated.counterAfterPulses, 25u);
    EXPECT_GT(gated.gated, 0u);
    EXPECT_EQ(ungated.gated, 0u);
}

TEST(RtlObjectGating, NvdlaRunIsTimingIdenticalGatedVsUngated) {
    NvdlaSocHarness gated{64, false, /*gateIdleTicks=*/true};
    NvdlaSocHarness ungated{64, false, /*gateIdleTicks=*/false};
    gated.run();
    ungated.run();
    ASSERT_TRUE(gated.host->finished());
    ASSERT_TRUE(ungated.host->finished());
    EXPECT_TRUE(gated.host->checksumOk());
    EXPECT_TRUE(ungated.host->checksumOk());
    EXPECT_EQ(gated.host->finishTick(), ungated.host->finishTick());
    EXPECT_EQ(gated.sim.findStat("nvdla0.irqEdges")->value(),
              ungated.sim.findStat("nvdla0.irqEdges")->value());
    EXPECT_GT(gated.rtl->gatedTicks(), 0u);
    EXPECT_EQ(ungated.rtl->gatedTicks(), 0u);
}

// A stalled NVDLA (no credit left, or nothing to issue before a response)
// promises quiet_hint; the bridge then stops ticking it and hands it the
// skipped cycles with the response. Simulated traffic must not move, and
// every delivered-tick stat must read as if each cycle had been ticked.
// The striped shape stalls with compute running, so the model must fold
// skipped cycles into its compute state; the flaky memory path rejects a
// third of the model's requests, so the bridge also gates with sends queued
// behind a blocked port.
TEST(RtlObjectGating, NvdlaStallSkipKeepsPacketsAndTickStatsExact) {
    struct Case {
        unsigned inflight;
        bool flaky;
    };
    for (const Case c : {Case{1, false}, Case{16, false}, Case{8, true}}) {
        const std::string name =
            "q" + std::to_string(c.inflight) + (c.flaky ? "_flaky" : "");
        SCOPED_TRACE(name);
        const std::string stem = ::testing::TempDir() + "/stall_" + name + "_";
        NvdlaSocHarness gated{c.inflight, false, /*gateIdleTicks=*/true, c.flaky,
                              stem + "gated.g5rec", stripedShape()};
        NvdlaSocHarness ungated{c.inflight, false, /*gateIdleTicks=*/false, c.flaky,
                                stem + "ungated.g5rec", stripedShape()};
        gated.run();
        ungated.run();
        ASSERT_TRUE(gated.host->checksumOk());
        ASSERT_TRUE(ungated.host->checksumOk());
        EXPECT_EQ(gated.host->finishTick(), ungated.host->finishTick());
        const obs::DivergenceReport rep = obs::diffRecordingFiles(
            stem + "gated.g5rec", stem + "ungated.g5rec", obs::DiffLane::kPacketsOnly);
        ASSERT_TRUE(rep.comparable) << rep.error;
        EXPECT_FALSE(rep.diverged) << obs::formatDivergenceReport(rep, "gated", "ungated");

        // Idle cycles (idle_hint) stay out of the delivered-tick stats, as
        // before; every other cycle, skipped stall cycles included, is in.
        const double idle = gated.stat("gatedTicks");
        EXPECT_EQ(gated.stat("ticks") + idle, ungated.stat("ticks"));
        EXPECT_EQ(gated.stat("zeroCreditTicks"), ungated.stat("zeroCreditTicks"));
        EXPECT_GT(gated.stat("zeroCreditTicks"), 0.0);
        for (const char* hist : {"outstandingHist", "devQueueHist"}) {
            stats::HistogramData withIdle = gated.hist(hist);
            withIdle.sampleInt(0, static_cast<std::uint64_t>(idle));
            EXPECT_EQ(withIdle, ungated.hist(hist)) << hist;
        }

        // The skip engaged, and every cycle reached the model exactly once.
        EXPECT_GT(gated.counter->skipped, 0u);
        EXPECT_LT(static_cast<double>(gated.counter->calls), gated.stat("ticks"));
        EXPECT_EQ(static_cast<double>(gated.counter->calls + gated.counter->skipped),
                  gated.stat("ticks") + idle);
        EXPECT_EQ(ungated.counter->skipped, 0u);
        EXPECT_EQ(static_cast<double>(ungated.counter->calls), ungated.stat("ticks"));
    }
}

// A waveform needs every cycle: with VCD tracing on, the model promises
// nothing, so no cycle is skipped or gated.
TEST(RtlObjectGating, VcdTracingDisablesTheSkip) {
    const std::string vcd = ::testing::TempDir() + "/stall_traced.vcd";
    NvdlaSocHarness h{1};
    ASSERT_TRUE(h.rtl->traceStart(vcd));
    h.run();
    h.rtl->traceStop();
    ASSERT_TRUE(h.host->checksumOk());
    EXPECT_EQ(h.counter->skipped, 0u);
    EXPECT_EQ(h.rtl->gatedTicks(), 0u);
    EXPECT_EQ(static_cast<double>(h.counter->calls), h.stat("ticks"));
    std::remove(vcd.c_str());
}

namespace v1compat {

// A minimal ABI-v1 model: its tick writes only the v1 output prefix, so any
// non-zero idle_hint byte the simulator might read is stale garbage. It must
// never be gated regardless.
void* create(const char*) { return new int(0); }
void destroy(void* m) { delete static_cast<int*>(m); }
void reset(void*) {}
void tick(void* m, const G5rRtlInput*, G5rRtlOutput* out) {
    ++*static_cast<int*>(m);
    out->idle_hint = 1;  // Simulated stale byte beyond the v1 struct end.
}

constexpr G5rRtlModelApi kApi = {1u, "v1model", create, destroy, reset, tick,
                                 nullptr, nullptr};

}  // namespace v1compat

TEST(RtlObjectGating, V1AbiModelsLoadButNeverGate) {
    Simulation sim;
    auto model = std::make_unique<ApiRtlModel>(&v1compat::kApi, "");
    EXPECT_EQ(model->abiVersion(), 1u);
    EXPECT_FALSE(model->supportsIdleHint());
    RtlObject rtl(sim, "v1_obj", RtlObjectParams{}, std::move(model));
    sim.run(100'000);  // 100 RTL cycles at 1 GHz.
    EXPECT_FALSE(rtl.isGated());
    EXPECT_EQ(rtl.gatedTicks(), 0u);
    EXPECT_GE(sim.findStat("v1_obj.ticks")->value(), 99.0);
}

namespace tablecheck {

// Entry points that count calls, so a rejected table is seen to be rejected
// before the model is ever created.
int creates = 0;
int dummyModel = 0;
void* create(const char*) {
    ++creates;
    return &dummyModel;
}
void destroy(void*) {}
void reset(void*) {}
void tick(void*, const G5rRtlInput*, G5rRtlOutput*) {}

/// Build an ApiRtlModel over @p api; the error it throws, or "" if it loads.
std::string loadError(const G5rRtlModelApi& api) {
    try {
        ApiRtlModel model{&api, ""};
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

}  // namespace tablecheck

TEST(RtlModelApi, NullMandatoryMemberIsRejectedByName) {
    using namespace tablecheck;
    const G5rRtlModelApi good = {G5R_RTL_ABI_VERSION, "broken", create, destroy, reset, tick,
                                 nullptr, nullptr};
    ASSERT_EQ(loadError(good), "");  // trace_start/trace_stop stay optional.
    const std::pair<const char*, G5rRtlModelApi> cases[] = {
        {"name", {G5R_RTL_ABI_VERSION, nullptr, create, destroy, reset, tick, nullptr, nullptr}},
        {"create", {G5R_RTL_ABI_VERSION, "broken", nullptr, destroy, reset, tick, nullptr,
                    nullptr}},
        {"destroy", {G5R_RTL_ABI_VERSION, "broken", create, nullptr, reset, tick, nullptr,
                     nullptr}},
        {"reset", {G5R_RTL_ABI_VERSION, "broken", create, destroy, nullptr, tick, nullptr,
                   nullptr}},
        {"tick", {G5R_RTL_ABI_VERSION, "broken", create, destroy, reset, nullptr, nullptr,
                  nullptr}},
    };
    creates = 0;
    for (const auto& [member, api] : cases) {
        const std::string error = loadError(api);
        EXPECT_NE(error.find(std::string{"null "} + member), std::string::npos)
            << member << ": " << error;
        if (api.name != nullptr) {
            EXPECT_NE(error.find("'broken'"), std::string::npos) << error;
        }
    }
    EXPECT_EQ(creates, 0);
}

TEST(RtlModelApi, AbiVersionOutsideTheAcceptedRangeIsRejected) {
    using namespace tablecheck;
    const std::string range = "v" + std::to_string(G5R_RTL_ABI_VERSION_MIN) + "..v" +
                              std::to_string(G5R_RTL_ABI_VERSION);
    creates = 0;
    for (const std::uint32_t version : {G5R_RTL_ABI_VERSION_MIN - 1, G5R_RTL_ABI_VERSION + 1}) {
        const G5rRtlModelApi api = {version, "skewed", create, destroy, reset, tick, nullptr,
                                    nullptr};
        const std::string error = loadError(api);
        EXPECT_NE(error.find("'skewed'"), std::string::npos) << error;
        EXPECT_NE(error.find("ABI v" + std::to_string(version)), std::string::npos) << error;
        EXPECT_NE(error.find(range), std::string::npos) << error;
    }
    EXPECT_EQ(creates, 0);
}

namespace hintmodel {

// A model that reports both hints on every tick (as stale bytes, for an ABI
// revision that predates them) and records the skipped cycles it is given.
struct State {
    std::uint64_t ticks = 0;
    std::uint64_t skipped = 0;
    bool idle = true;
};
State* lastCreated = nullptr;

void* create(const char* config) {
    lastCreated = new State;
    lastCreated->idle = std::string{config} != "quiet-only";
    return lastCreated;
}
void destroy(void* m) { delete static_cast<State*>(m); }
void reset(void*) {}
void tick(void* m, const G5rRtlInput* in, G5rRtlOutput* out) {
    auto& s = *static_cast<State*>(m);
    ++s.ticks;
    s.skipped += in->skipped_cycles;
    out->idle_hint = s.idle ? 1 : 0;
    out->quiet_hint = 1;
}

constexpr G5rRtlModelApi kV2 = {2u, "v2model", create, destroy, reset, tick, nullptr, nullptr};
constexpr G5rRtlModelApi kV3 = {3u, "v3model", create, destroy, reset, tick, nullptr, nullptr};

}  // namespace hintmodel

// The bridge hands skipped cycles only to a model of ABI v3 or later, and
// honours quiet_hint only there: a v2 model still gates on idle_hint, but
// its next tick reports no skipped cycles, and a quiet_hint byte alone
// never gates it.
TEST(RtlObjectGating, V2ModelNeverReceivesSkippedCycles) {
    for (const G5rRtlModelApi* api : {&hintmodel::kV2, &hintmodel::kV3}) {
        SCOPED_TRACE(api->name);
        Simulation sim;
        HwEventBus bus;
        RtlObject rtl(sim, "obj", RtlObjectParams{},
                      std::make_unique<ApiRtlModel>(api, "both"), &bus);
        const hintmodel::State& state = *hintmodel::lastCreated;
        sim.run(100'000);  // 100 RTL cycles at 1 GHz: gated after the first.
        ASSERT_TRUE(rtl.isGated());
        bus.pulse(HwEventBus::kCommit0);
        sim.run(sim.curTick() + 10'000);
        EXPECT_GT(rtl.gatedTicks(), 90u);
        EXPECT_EQ(state.skipped, api->abi_version >= 3 ? rtl.gatedTicks() : 0u);
    }

    Simulation sim;
    RtlObject rtl(sim, "obj", RtlObjectParams{},
                  std::make_unique<ApiRtlModel>(&hintmodel::kV2, "quiet-only"));
    const hintmodel::State& state = *hintmodel::lastCreated;
    sim.run(100'000);
    EXPECT_FALSE(rtl.isGated());
    EXPECT_EQ(state.skipped, 0u);
    EXPECT_GE(state.ticks, 100u);
}

namespace stallmodel {

// Issues one read on its first tick, then waits for it with the one credit
// used up (quiet_hint), and ticks every cycle once answered. Counts its own
// clock, skipped cycles included, so a skip shows in when the answer is
// seen.
struct State {
    std::uint64_t cycle = 0;
    std::uint64_t answeredAt = 0;
    std::uint64_t skippedAtAnswer = 0;
    bool issued = false;
};
State* lastCreated = nullptr;

void* create(const char*) { return lastCreated = new State; }
void destroy(void* m) { delete static_cast<State*>(m); }
void reset(void*) {}
void tick(void* m, const G5rRtlInput* in, G5rRtlOutput* out) {
    auto& s = *static_cast<State*>(m);
    s.cycle += in->skipped_cycles + 1;
    if (in->mem_resp_valid != 0) {
        s.answeredAt = s.cycle;
        s.skippedAtAnswer = in->skipped_cycles;
    }
    if (!s.issued && in->mem_req_credits > 0) {
        s.issued = true;
        out->mem_req_count = 1;
        out->mem_req[0].id = 7;
        out->mem_req[0].addr = 0x40;
        out->mem_req[0].size = 8;
    }
    out->quiet_hint = s.issued && s.answeredAt == 0 ? 1 : 0;
}

constexpr G5rRtlModelApi kApi = {G5R_RTL_ABI_VERSION, "stall", create, destroy, reset, tick,
                                 nullptr, nullptr};

struct Harness {
    Harness(Tick memLatency, bool gate) {
        SimpleMemory::Params mp;
        mp.range = AddrRange{0, 1 << 20};
        mp.latency = memLatency;
        mem = std::make_unique<SimpleMemory>(sim, "mem", mp, store);
        RtlObjectParams rp;
        rp.maxInflight = 1;
        rp.gateIdleTicks = gate;
        rtl = std::make_unique<RtlObject>(sim, "obj", rp,
                                          std::make_unique<ApiRtlModel>(&kApi, ""));
        state = lastCreated;
        rtl->memSidePort(0).bind(mem->port());
    }
    double ticks() const { return sim.findStat("obj.ticks")->value(); }

    Simulation sim;
    BackingStore store;
    std::unique_ptr<SimpleMemory> mem;
    std::unique_ptr<RtlObject> rtl;
    const State* state = nullptr;
};

}  // namespace stallmodel

// The tick at edge 0 issues the read and promises quiet from edge 1 on. A
// response that arrives exactly on edge 1 wakes the model into that same
// edge with zero skipped cycles; one that arrives mid-cycle later is seen
// on the next edge, after the whole gap is handed over. Either way the
// model sees it on the cycle an ungated run does, and the delivered-tick
// count agrees at every run() bound, mid-gap included.
TEST(RtlObjectGating, WakeOnTheEdgeRightAfterAStall) {
    const Tick period = periodFromGHz(1);
    for (const Tick latency : {period, 3 * period + period / 2}) {
        SCOPED_TRACE("memory latency " + std::to_string(latency));
        stallmodel::Harness gated{latency, true};
        stallmodel::Harness ungated{latency, false};
        for (const Tick bound : {period / 2, 2 * period + period / 2, 10 * period}) {
            gated.sim.run(bound);
            ungated.sim.run(bound);
            EXPECT_EQ(gated.ticks(), ungated.ticks()) << "at tick " << bound;
        }
        ASSERT_NE(ungated.state->answeredAt, 0u);
        EXPECT_EQ(gated.state->answeredAt, ungated.state->answeredAt);
        const std::uint64_t edgesWaited = (latency + period - 1) / period;
        EXPECT_EQ(gated.state->skippedAtAnswer, edgesWaited - 1);
        EXPECT_EQ(ungated.state->skippedAtAnswer, 0u);
    }
}

// ------------------------------------------------------- device-queue retry --

TEST(RtlObjectDevRetry, RefusedPortIsRetriedWhenQueueSpaceFrees) {
    // Regression: retries used to be sent only when a *response* later went
    // out on the same CPU-side port, so a refused port whose traffic was
    // response-less at that moment starved even though the queue drained.
    Simulation sim;
    HwEventBus bus;
    RtlObjectParams params;
    params.devQueueDepth = 1;  // Any burst overflows instantly.
    RtlObject rtl(sim, "pmu_obj", params,
                  SharedLibModel::load(modelPath("libpmu_rtl.so"), ""), &bus);
    testing::TestRequester req0(sim, "host0");
    testing::TestRequester req1(sim, "host1");
    req0.port().bind(rtl.cpuSidePort(0));
    req1.port().bind(rtl.cpuSidePort(1));

    // Port 0 floods the 1-deep queue; port 1's lone write gets refused.
    for (int i = 0; i < 5; ++i) {
        auto pkt = makeWritePacket(models::PmuDesign::kControlReg, 8);
        pkt->set<std::uint64_t>(0);
        req0.issueAt(0, std::move(pkt));
    }
    auto pkt = makeWritePacket(models::PmuDesign::kControlReg, 8);
    pkt->set<std::uint64_t>(0);
    req1.issueAt(0, std::move(pkt));

    sim.run(1'000'000);
    EXPECT_TRUE(req0.allResponsesReceived());
    EXPECT_TRUE(req1.allResponsesReceived()) << "port 1 starved of its retry";
    EXPECT_GT(req0.retriesSeen() + req1.retriesSeen(), 0);
}

// ------------------------------------------------------ flaky-path retries --

TEST(RtlObjectRetryFuzz, FlakyMemoryPathLosesNothingGatedOrUngated) {
    NvdlaSocHarness gated{8, false, /*gateIdleTicks=*/true, /*flakyMemPath=*/true};
    NvdlaSocHarness ungated{8, false, /*gateIdleTicks=*/false, /*flakyMemPath=*/true};
    gated.run();
    ungated.run();
    for (const auto* h : {&gated, &ungated}) {
        ASSERT_TRUE(h->host->finished());
        EXPECT_TRUE(h->host->checksumOk());
        EXPECT_GT(h->flaky->reqRejections(), 0);
        EXPECT_EQ(h->flaky->reqsForwarded(), h->flaky->respsForwarded())
            << "a request or response was dropped in the retry protocol";
    }
    // The injected rejections perturb both runs identically, so gating must
    // still be timing-neutral under retry pressure.
    EXPECT_EQ(gated.host->finishTick(), ungated.host->finishTick());
    EXPECT_GT(gated.rtl->gatedTicks(), 0u);
}

}  // namespace
}  // namespace g5r
