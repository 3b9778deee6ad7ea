// OoO core: architectural correctness (co-simulated against the functional
// golden model), pipeline behaviours (superscalar IPC, mispredict recovery,
// store-to-load forwarding), syscalls, and the full cache-hierarchy path.
#include <gtest/gtest.h>

#include <memory>

#include "cpu/functional.hh"
#include "cpu/ooo_core.hh"
#include "cpu/workloads.hh"
#include "mem/cache/cache.hh"
#include "mem/simple_mem.hh"
#include "mem/xbar.hh"
#include "sim/rng.hh"

namespace g5r {
namespace {

// Full single-core system: core -> L1I/L1D -> xbar -> memory.
struct CoreHarness {
    explicit CoreHarness(const isa::Program& prog, std::uint64_t entry = 0,
                         OooCoreParams coreParams = {}) {
        core = std::make_unique<OooCore>(sim, "cpu0", coreParams, entry);

        CacheParams l1p;
        l1p.sizeBytes = 64 * 1024;
        l1p.assoc = 4;
        l1p.lookupLatency = 2;
        l1p.mshrs = 24;
        l1i = std::make_unique<Cache>(sim, "l1i", l1p);
        l1d = std::make_unique<Cache>(sim, "l1d", l1p);

        xbar = std::make_unique<Xbar>(sim, "xbar", Xbar::Params{});

        SimpleMemory::Params mp;
        mp.range = AddrRange{0, 1ULL << 30};
        mp.latency = 40'000;
        mem = std::make_unique<SimpleMemory>(sim, "mem", mp, store);

        core->icachePort().bind(l1i->cpuSidePort());
        core->dcachePort().bind(l1d->cpuSidePort());
        l1i->memSidePort().bind(xbar->addCpuSidePort("l1i"));
        l1d->memSidePort().bind(xbar->addCpuSidePort("l1d"));
        xbar->addMemSidePort("mem", RouteSpec{mp.range}).bind(mem->port());

        core->setExitCallback([this] { sim.exitSimLoop("cpu0 exit"); });

        for (std::size_t i = 0; i < prog.code.size(); ++i) {
            store.store<std::uint64_t>(entry + i * isa::kInstrBytes, prog.code[i]);
        }
    }

    RunResult run(Tick maxTick = 500'000'000'000ULL) { return sim.run(maxTick); }

    Simulation sim;
    BackingStore store;
    std::unique_ptr<OooCore> core;
    std::unique_ptr<Cache> l1i;
    std::unique_ptr<Cache> l1d;
    std::unique_ptr<Xbar> xbar;
    std::unique_ptr<SimpleMemory> mem;
};

TEST(OooCore, ArithmeticLoopProducesCorrectResult) {
    const auto prog = isa::assemble(R"(
          li a0, 0
          li t0, 1
          li t1, 101
        loop:
          add a0, a0, t0
          addi t0, t0, 1
          blt t0, t1, loop
          li a7, 0
          ecall
          halt
    )");
    CoreHarness h{prog};
    const auto result = h.run();
    EXPECT_EQ(result.cause, ExitCause::kSimExit);
    EXPECT_TRUE(h.core->halted());
    EXPECT_EQ(h.core->archReg(10), 5050u);
    EXPECT_GT(h.core->committedInstructions(), 300u);
}

TEST(OooCore, MemoryOperationsThroughCacheHierarchy) {
    const auto prog = isa::assemble(R"(
          li t0, 0x10000
          li t1, 0
          li t2, 64
        fill:                 ; arr[i] = i*2
          add t3, t1, t1
          slli t4, t1, 3
          add t4, t0, t4
          sd t3, 0(t4)
          addi t1, t1, 1
          blt t1, t2, fill
          li t1, 0
          li a0, 0
        sum:                  ; a0 = sum(arr)
          slli t4, t1, 3
          add t4, t0, t4
          ld t3, 0(t4)
          add a0, a0, t3
          addi t1, t1, 1
          blt t1, t2, sum
          halt
    )");
    CoreHarness h{prog};
    h.run();
    EXPECT_TRUE(h.core->halted());
    EXPECT_EQ(h.core->archReg(10), 64u * 63u);  // 2 * sum(0..63)
    // The stores must be visible through the hierarchy (the dirty lines may
    // still live in the write-back L1D, so probe functionally through it).
    Packet probe{MemCmd::kReadReq, 0x10000 + 8 * 10, 8};
    h.l1d->cpuSidePort().recvFunctional(probe);
    EXPECT_EQ(probe.get<std::uint64_t>(), 20u);
    EXPECT_GT(h.sim.findStat("l1d.hits")->value(), 0.0);
}

TEST(OooCore, SuperscalarIpcOnIndependentOps) {
    // Long stretches of independent adds: IPC should approach the 3-wide
    // front-end, certainly exceeding 1.5.
    std::string body;
    for (int i = 0; i < 16; ++i) {
        body += "  addi x" + std::to_string(5 + (i % 8)) + ", x0, " + std::to_string(i) + "\n";
    }
    std::string src = "  li t6, 0\n  li s11, 2000\nloop:\n" + body +
                      "  addi t6, t6, 1\n  blt t6, s11, loop\n  halt\n";
    CoreHarness h{isa::assemble(src)};
    h.run();
    const double ipc = static_cast<double>(h.core->committedInstructions()) /
                       static_cast<double>(h.core->cyclesRetired());
    EXPECT_GT(ipc, 1.5);
}

TEST(OooCore, DependentChainLimitsIpc) {
    // A pointer-chase-like serial dependency: every op needs the previous.
    std::string src = "  li t0, 1\n  li t6, 0\n  li s11, 2000\nloop:\n";
    for (int i = 0; i < 16; ++i) src += "  mul t0, t0, t0\n";
    src += "  addi t6, t6, 1\n  blt t6, s11, loop\n  halt\n";
    CoreHarness h{isa::assemble(src)};
    h.run();
    const double ipc = static_cast<double>(h.core->committedInstructions()) /
                       static_cast<double>(h.core->cyclesRetired());
    EXPECT_LT(ipc, 0.7);  // Serial 3-cycle muls dominate.
}

TEST(OooCore, BranchPredictionLearnsLoops) {
    const auto prog = isa::assemble(R"(
          li t0, 0
          li t1, 5000
        loop:
          addi t0, t0, 1
          blt t0, t1, loop
          halt
    )");
    CoreHarness h{prog};
    h.run();
    const double mispredicts = h.sim.findStat("cpu0.branchMispredicts")->value();
    const double branches = h.sim.findStat("cpu0.branches")->value();
    EXPECT_GT(branches, 4999.0);
    // A tight loop should mispredict only at warm-up and exit.
    EXPECT_LT(mispredicts / branches, 0.01);
}

TEST(OooCore, MispredictRecoveryIsArchitecturallyCorrect) {
    // Data-dependent unpredictable branches; result must still be exact.
    const auto prog = isa::assemble(R"(
          li t0, 0          ; i
          li t1, 3000       ; n
          li a0, 0          ; accumulator
          li t3, 1234567
        loop:
          mul t3, t3, t3    ; scramble
          addi t3, t3, 9973
          andi t4, t3, 1
          beq t4, x0, even
          addi a0, a0, 3
          j next
        even:
          addi a0, a0, 5
        next:
          addi t0, t0, 1
          blt t0, t1, loop
          halt
    )");
    CoreHarness h{prog};
    h.run();
    ASSERT_TRUE(h.core->halted());
    EXPECT_GT(h.sim.findStat("cpu0.branchMispredicts")->value(), 100.0);
    EXPECT_GT(h.sim.findStat("cpu0.squashedInsts")->value(), 0.0);

    // Golden check via the functional model.
    BackingStore ref;
    const auto progCopy = isa::assemble(R"(
          li t0, 0
          li t1, 3000
          li a0, 0
          li t3, 1234567
        loop:
          mul t3, t3, t3
          addi t3, t3, 9973
          andi t4, t3, 1
          beq t4, x0, even
          addi a0, a0, 3
          j next
        even:
          addi a0, a0, 5
        next:
          addi t0, t0, 1
          blt t0, t1, loop
          halt
    )");
    for (std::size_t i = 0; i < progCopy.code.size(); ++i) {
        ref.store<std::uint64_t>(i * isa::kInstrBytes, progCopy.code[i]);
    }
    isa::FunctionalCore golden{ref, 0};
    golden.run();
    EXPECT_EQ(h.core->archReg(10), golden.state().read(10));
}

TEST(OooCore, StoreToLoadForwarding) {
    // Push/pop pairs through the stack force load-after-store to the same
    // address while the store is still in flight.
    const auto prog = isa::assemble(R"(
          li sp, 0x20000
          li t0, 0
          li t1, 1000
          li a0, 0
        loop:
          addi sp, sp, -8
          sd t0, 0(sp)
          ld t2, 0(sp)
          add a0, a0, t2
          addi sp, sp, 8
          addi t0, t0, 1
          blt t0, t1, loop
          halt
    )");
    CoreHarness h{prog};
    h.run();
    EXPECT_EQ(h.core->archReg(10), 999u * 1000u / 2u);
    EXPECT_GT(h.sim.findStat("cpu0.stlForwards")->value(), 0.0);
}

TEST(OooCore, SleepSyscallIdlesThePipeline) {
    const auto prog = isa::assemble(R"(
          li a0, 10000      ; 10 us
          li a7, 1
          ecall
          li a7, 0
          ecall
          halt
    )");
    CoreHarness h{prog};
    h.run();
    EXPECT_TRUE(h.core->halted());
    // 10 us at 2 GHz = 20k cycles of sleep.
    EXPECT_GT(h.core->cyclesRetired(), 20'000u);
    EXPECT_GT(h.sim.findStat("cpu0.sleepCycles")->value(), 19'000.0);
    // IPC over the whole run is near zero because of the sleep window.
    const double ipc = static_cast<double>(h.core->committedInstructions()) /
                       static_cast<double>(h.core->cyclesRetired());
    EXPECT_LT(ipc, 0.01);
}

TEST(OooCore, ConsoleSyscalls) {
    const auto prog = isa::assemble(R"(
          li a0, 79        ; 'O'
          li a7, 2
          ecall
          li a0, 75        ; 'K'
          li a7, 2
          ecall
          li a0, 42
          li a7, 3
          ecall
          li a7, 0
          ecall
          halt
    )");
    CoreHarness h{prog};
    h.run();
    EXPECT_EQ(h.core->consoleOutput(), "OK42");
}

TEST(OooCore, ExitCallbackFires) {
    const auto prog = isa::assemble("  li a7, 0\n  ecall\n  halt\n");
    CoreHarness h{prog};
    bool fired = false;
    h.core->setExitCallback([&] { fired = true; });
    h.run(2'000'000);
    EXPECT_TRUE(fired);
}

TEST(OooCore, CommitEventsPulseTheEventBus) {
    const auto prog = isa::assemble(R"(
          li t0, 0
          li t1, 100
        loop:
          addi t0, t0, 1
          blt t0, t1, loop
          halt
    )");
    CoreHarness h{prog};
    HwEventBus bus;
    h.core->setEventBus(&bus);
    h.run();
    const auto pulses = bus.drain();
    std::uint64_t total = 0;
    for (unsigned lane = 0; lane < 4; ++lane) total += pulses[lane];
    EXPECT_EQ(total, h.core->committedInstructions());
}

// Co-simulation sweep: the OoO core and the functional golden model must
// agree on final architectural state for randomised programs.
class CoSimTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoSimTest, SortKernelMatchesGoldenModel) {
    workloads::SortBenchmarkLayout layout;
    layout.baseElems = 24;
    layout.sleepNs = 500;
    const auto prog = workloads::sortBenchmarkProgram(layout);

    CoreHarness h{prog};
    workloads::populateSortArrays(h.store, layout, GetParam());
    const auto result = h.run();
    ASSERT_EQ(result.cause, ExitCause::kSimExit) << "timing core did not finish";

    BackingStore ref;
    workloads::populateSortArrays(ref, layout, GetParam());
    for (std::size_t i = 0; i < prog.code.size(); ++i) {
        ref.store<std::uint64_t>(i * isa::kInstrBytes, prog.code[i]);
    }
    isa::FunctionalCore golden{ref, 0};
    while (golden.run(1'000'000'000) != isa::StopReason::kHalted) {}

    // Same committed-instruction count and identical sorted arrays. Dirty
    // lines may still be in the write-back L1D, so read through it.
    EXPECT_EQ(h.core->committedInstructions(), golden.instructionsRetired());
    auto timingLoad = [&](std::uint64_t addr) {
        Packet probe{MemCmd::kReadReq, addr, 8};
        h.l1d->cpuSidePort().recvFunctional(probe);
        return probe.get<std::uint64_t>();
    };
    std::uint64_t prev = 0;
    for (const auto base : {layout.quickBase, layout.selBase, layout.bubbleBase}) {
        const std::uint64_t elems =
            base == layout.quickBase ? layout.quickElems() : layout.baseElems;
        for (std::uint64_t i = 0; i < elems; ++i) {
            const std::uint64_t v = timingLoad(base + 8 * i);
            ASSERT_EQ(v, ref.load<std::uint64_t>(base + 8 * i))
                << "mismatch at array 0x" << std::hex << base << " index " << std::dec << i;
            if (i > 0) {
                EXPECT_LE(prev, v) << "array not sorted";
            }
            prev = v;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoSimTest, ::testing::Values(11u, 22u, 33u));

}  // namespace
}  // namespace g5r
