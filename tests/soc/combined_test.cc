// Combined integration: the paper's premise is "a system with multiple
// hardware components connected" — here the PMU and an NVDLA instance share
// one SoC while a core runs a program, all three interacting through the
// same interconnect.
#include <gtest/gtest.h>

#include "soc/model_loader.hh"
#include "soc/nvdla_host.hh"
#include "soc/pmu_observer.hh"
#include "soc/soc.hh"

namespace g5r {
namespace {

TEST(CombinedSoc, PmuMonitorsWhileNvdlaComputes) {
    Simulation sim;
    SocConfig cfg = table1Config(MemTech::kDdr4_2ch);
    cfg.numCores = 1;
    Soc soc{sim, cfg};

    // Model 0: the PMU, watching core 0 through the event bus.
    RtlObjectParams pmuParams;
    pmuParams.clockPeriod = cfg.coreClock;
    RtlObject& pmu = soc.attachRtlModel("pmu", loadRtlModel("pmu"), pmuParams,
                                        Soc::MemPorts::kNone, /*wireEventBus=*/true);

    // Model 1: an NVDLA running a small convolution, driven by a host.
    models::NvdlaShape shape;
    shape.width = shape.height = 16;
    shape.inChannels = shape.outChannels = 16;
    shape.filterH = shape.filterW = 1;
    const auto trace = models::sharedConvTrace("combined", shape, models::NvdlaPlacement{}, 3);

    RtlObjectParams dlaParams;
    dlaParams.clockPeriod = cfg.rtlClock;
    dlaParams.maxInflight = 64;
    soc.attachRtlModel("nvdla0", loadRtlModel("nvdla"), dlaParams,
                       Soc::MemPorts::kMainMemory, /*wireEventBus=*/false);

    NvdlaHost::Params hp;
    hp.csbBase = soc.deviceBaseOf(1);
    NvdlaHost host{sim, "system.host0", hp, trace};
    host.port().bind(soc.addHostPort("host0"));

    // The PMU observer samples every 10k cycles while everything runs.
    PmuObserver::Params op;
    op.pmuBase = soc.deviceBaseOf(0);
    OooCore& core0 = soc.core(0);
    PmuObserver observer{sim, "system.pmu_observer", op,
                         [&core0]() -> std::array<double, 3> {
                             return {static_cast<double>(core0.committedInstructions()),
                                     static_cast<double>(core0.cyclesRetired()), 0.0};
                         }};
    observer.setConfigWrites(PmuObserver::fig5Config(10'000));
    observer.port().bind(soc.addHostPort("pmu_observer"));
    pmu.setIrqCallback([&observer](bool level) { observer.onIrq(level); });

    // The core crunches in parallel with the accelerator.
    soc.loadProgram(0, isa::assemble(R"(
          li t0, 0
          li t1, 200000
        loop:
          addi t0, t0, 1
          blt t0, t1, loop
          li a7, 0
          ecall
          halt
    )"));

    // Run until both the program and the accelerator are finished.
    bool coreDone = false;
    while ((!coreDone || !host.finished()) && sim.curTick() < 2'000'000'000ULL) {
        sim.run(sim.curTick() + 50'000'000);
        coreDone = soc.core(0).halted();
    }

    ASSERT_TRUE(soc.core(0).halted());
    ASSERT_TRUE(host.finished());
    EXPECT_TRUE(host.checksumOk());
    // The PMU sampled the whole episode; its commit totals track the core.
    ASSERT_GE(observer.samples().size(), 3u);
    const auto& last = observer.samples().back();
    EXPECT_NEAR(static_cast<double>(last.pmuCommits()), last.gem5Insts,
                last.gem5Insts * 0.02 + 200);
    // Both devices moved real traffic.
    EXPECT_GT(sim.findStat("system.pmu.devReads")->value(), 0.0);
    EXPECT_GT(sim.findStat("system.nvdla0.memReads")->value(), 0.0);
}

TEST(CombinedSoc, RtlObjectDeviceQueueBackpressures) {
    // Flood a device's CSB window with more outstanding writes than its
    // queue depth: the RTLObject must back-pressure and still complete all.
    Simulation sim;
    SocConfig cfg = table1Config();
    cfg.numCores = 1;
    Soc soc{sim, cfg};
    RtlObjectParams rp;
    rp.clockPeriod = cfg.rtlClock;
    rp.devQueueDepth = 2;
    soc.attachRtlModel("pmu", loadRtlModel("pmu"), rp, Soc::MemPorts::kNone, true);

    // 32 back-to-back device writes from the core (stores drain via the
    // store buffer, up to 4 outstanding at a time).
    std::string src = "  li t0, " + std::to_string(soc.deviceBaseOf(0)) + "\n";
    for (int i = 0; i < 32; ++i) {
        src += "  li t1, " + std::to_string(i) + "\n  sd t1, 0(t0)\n";
    }
    src += "  ld a0, 0(t0)\n  li a7, 0\n  ecall\n  halt\n";
    soc.loadProgram(0, isa::assemble(src));
    const RunResult result = sim.run(10'000'000'000ULL);
    EXPECT_EQ(result.cause, ExitCause::kSimExit);
    // The final read returns the last value written to counter 0 (writes
    // set the counter preset; counting may add on top, so >= 31).
    EXPECT_GE(soc.core(0).archReg(10), 31u);
    EXPECT_EQ(sim.findStat("system.pmu.devWrites")->value(), 32.0);
}

}  // namespace
}  // namespace g5r
