// RTLObject integration: shared-library loading (dlopen), device-channel
// transactions, model-initiated memory traffic with the in-flight cap, TLB
// translation, clock ratios, interrupts, and a full NVDLA-over-SoC run.
#include <gtest/gtest.h>

#include <memory>

#include "bridge/rtl_object.hh"
#include "common/flaky_forwarder.hh"
#include "common/test_requester.hh"
#include "mem/simple_mem.hh"
#include "mem/xbar.hh"
#include "models/nvdla/trace.hh"
#include "models/pmu/pmu_design.hh"
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

struct NvdlaSocHarness {
    static constexpr Addr kCsbBase = 0x6000'0000;

    explicit NvdlaSocHarness(unsigned maxInflight = 64, bool useTlb = false,
                             bool gateIdleTicks = true, bool flakyMemPath = false) {
        const auto shape = [] {
            models::NvdlaShape s;
            s.width = s.height = 16;
            s.inChannels = s.outChannels = 8;
            s.filterH = s.filterW = 1;
            s.refetch = 1;
            return s;
        }();
        trace = models::sharedConvTrace("tiny", shape, models::NvdlaPlacement{}, 21);

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
        rtl = std::make_unique<RtlObject>(
            sim, "nvdla0", rp, SharedLibModel::load(modelPath("libnvdla_rtl.so"), ""),
            nullptr, tlb.get());

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
    }

    RunResult run() { return sim.run(sim.curTick() + 500'000'000'000ULL); }

    Simulation sim;
    BackingStore store;
    std::shared_ptr<const models::NvdlaTrace> trace;
    std::unique_ptr<Xbar> xbar;
    std::unique_ptr<SimpleMemory> mem;
    std::unique_ptr<Tlb> tlb;
    std::unique_ptr<testing::FlakyForwarder> flaky;
    std::unique_ptr<RtlObject> rtl;
    std::unique_ptr<NvdlaHost> host;
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
