// SoC extension features: the SRAMIF scratchpad (the paper's proposed
// extension), multi-core PMU event wiring, and multi-programmed workloads.
#include <gtest/gtest.h>

#include "soc/experiments.hh"
#include "soc/model_loader.hh"
#include "soc/soc.hh"

namespace g5r {
namespace {

// ----------------------------------------------------------- scratchpad ----

models::NvdlaShape weightHeavyShape() {
    // An FC-like layer where weights dominate the traffic, so steering them
    // to the SRAMIF scratchpad meaningfully unloads main memory.
    models::NvdlaShape s;
    s.width = s.height = 12;
    s.inChannels = 128;
    s.outChannels = 128;
    s.filterH = s.filterW = 3;
    s.refetch = 3;
    return s;
}

TEST(Scratchpad, WeightsViaSramifStillVerify) {
    experiments::DseRunConfig cfg;
    cfg.shape = weightHeavyShape();
    cfg.memTech = MemTech::kDdr4_1ch;
    cfg.numCores = 0;
    cfg.maxInflight = 64;
    cfg.sramScratchpad = true;
    const auto result = experiments::runNvdlaDse(cfg);
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(result.checksumsOk);
}

TEST(Scratchpad, OffloadingWeightsRelievesNarrowMemory) {
    experiments::DseRunConfig cfg;
    cfg.shape = weightHeavyShape();
    cfg.memTech = MemTech::kDdr4_1ch;
    cfg.numCores = 0;
    cfg.maxInflight = 64;

    cfg.sramScratchpad = false;
    const auto without = experiments::runNvdlaDse(cfg);
    ASSERT_TRUE(without.completed && without.checksumsOk);

    cfg.sramScratchpad = true;
    const auto with = experiments::runNvdlaDse(cfg);
    ASSERT_TRUE(with.completed && with.checksumsOk);

    // Weight traffic moved off the single DDR4 channel: the run gets faster.
    EXPECT_LT(with.runtimeTicks, without.runtimeTicks);
}

TEST(Scratchpad, MainMemorySeesNoWeightTraffic) {
    Simulation sim;
    SocConfig socCfg = table1Config(MemTech::kDdr4_1ch);
    socCfg.numCores = 0;
    Soc soc{sim, socCfg};

    RtlObjectParams rp;
    rp.clockPeriod = socCfg.rtlClock;
    RtlObject& rtl = soc.attachRtlModel("nvdla0", loadRtlModel("nvdla"), rp,
                                        Soc::MemPorts::kWithScratchpad, false);
    (void)rtl;
    // The scratchpad store exists and is writable; main memory store is
    // separate.
    soc.scratchpadStore(0).store<std::uint64_t>(0x100, 42);
    EXPECT_EQ(soc.scratchpadStore(0).load<std::uint64_t>(0x100), 42u);
    EXPECT_EQ(soc.memory().load<std::uint64_t>(0x100), 0u);
}

// ------------------------------------------------------- multi-core PMU ----

TEST(MultiCorePmu, EachCoreDrivesItsOwnCommitLine) {
    Simulation sim;
    SocConfig cfg = table1Config();
    cfg.numCores = 3;
    Soc soc{sim, cfg};

    // Three different-length counting loops.
    auto program = [](int iters) {
        return isa::assemble("  li t0, 0\n  li t1, " + std::to_string(iters) +
                             "\nloop:\n  addi t0, t0, 1\n  blt t0, t1, loop\n"
                             "  li a7, 0\n  ecall\n  halt\n");
    };
    soc.loadProgram(0, program(100), 0x1000);
    soc.loadProgram(1, program(300), 0x8000);
    soc.loadProgram(2, program(700), 0x10000);

    sim.run(100'000'000'000ULL);
    ASSERT_TRUE(soc.core(0).halted());
    ASSERT_TRUE(soc.core(1).halted());
    ASSERT_TRUE(soc.core(2).halted());

    const auto pulses = soc.eventBus().drain();
    // Core 0: four spread lanes sum to its commit count.
    EXPECT_EQ(pulses[0] + pulses[1] + pulses[2] + pulses[3],
              soc.core(0).committedInstructions());
    // Cores 1 and 2: single dedicated lines 8 and 9.
    EXPECT_EQ(pulses[8], soc.core(1).committedInstructions());
    EXPECT_EQ(pulses[9], soc.core(2).committedInstructions());
    EXPECT_GT(pulses[9], pulses[8]);
}

// ------------------------------------------------- multi-programmed SoC ----

TEST(MultiProgram, FourCoresSortConcurrently) {
    Simulation sim;
    SocConfig cfg = table1Config(MemTech::kDdr4_1ch);
    cfg.numCores = 4;
    Soc soc{sim, cfg};

    constexpr std::uint64_t kElems = 64;
    for (unsigned c = 0; c < 4; ++c) {
        const std::uint64_t arrayBase = 0x100000 + c * 0x10000;
        const std::uint64_t stackTop = 0x80000 + c * 0x4000;
        std::string src = "  li sp, " + std::to_string(stackTop) + "\n" +
                          "  li a0, " + std::to_string(arrayBase) + "\n" +
                          "  li a1, " + std::to_string(kElems) + "\n" +
                          "  call quicksort\n  li a7, 0\n  ecall\n  halt\n" +
                          workloads::quickSortFunction();
        soc.loadProgram(c, isa::assemble(src), 0x1000 + c * 0x2000);
        Rng rng{c + 77};
        for (std::uint64_t i = 0; i < kElems; ++i) {
            soc.memory().store<std::uint64_t>(arrayBase + 8 * i, rng.below(100000));
        }
    }

    const RunResult result = sim.run(500'000'000'000ULL);
    EXPECT_EQ(result.cause, ExitCause::kSimExit);

    // Every array is sorted (probe through each core's write-back L1D).
    for (unsigned c = 0; c < 4; ++c) {
        ASSERT_TRUE(soc.core(c).halted()) << "core " << c;
        const std::uint64_t arrayBase = 0x100000 + c * 0x10000;
        std::uint64_t prev = 0;
        for (std::uint64_t i = 0; i < kElems; ++i) {
            Packet probe{MemCmd::kReadReq, arrayBase + 8 * i, 8};
            soc.l1d(c).cpuSidePort().recvFunctional(probe);
            const auto v = probe.get<std::uint64_t>();
            if (i > 0) {
                ASSERT_LE(prev, v) << "core " << c << " index " << i;
            }
            prev = v;
        }
    }
    // All four private hierarchies saw traffic.
    for (unsigned c = 0; c < 4; ++c) {
        EXPECT_GT(sim.findStat("system.cpu" + std::to_string(c) + ".l1d.demandAccesses")
                      ->value(),
                  0.0);
    }
}

TEST(MultiProgram, ConcurrentCoresContendForSharedMemory) {
    // The same streaming program alone vs with three co-runners: shared LLC
    // and DRAM contention must make the shared run no faster.
    auto makeStream = [](unsigned c) {
        const std::uint64_t base = 0x400000 + c * 0x100000;  // 1 MiB apart.
        return isa::assemble("  li t0, " + std::to_string(base) + R"(
              li t1, 0
              li t2, 8192         ; 512 KiB: beyond L2, into LLC/DRAM
            loop:
              slli t3, t1, 6
              add t3, t0, t3
              ld t4, 0(t3)
              addi t1, t1, 1
              blt t1, t2, loop
              li a7, 0
              ecall
              halt
        )");
    };

    auto runWith = [&](unsigned numProgs) {
        Simulation sim;
        SocConfig cfg = table1Config(MemTech::kDdr4_1ch);
        cfg.numCores = 4;
        Soc soc{sim, cfg};
        for (unsigned c = 0; c < numProgs; ++c) {
            soc.loadProgram(c, makeStream(c), 0x1000 + c * 0x2000);
        }
        sim.run(500'000'000'000ULL);
        return soc.core(0).cyclesRetired();
    };

    const auto alone = runWith(1);
    const auto shared = runWith(4);
    EXPECT_GE(shared, alone);
}

}  // namespace
}  // namespace g5r
