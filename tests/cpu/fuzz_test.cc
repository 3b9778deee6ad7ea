// Differential fuzzing: pseudo-random programs run on the OoO timing core
// must produce exactly the architectural state the functional golden model
// produces — registers and memory. Programs mix ALU ops, loads/stores of
// all widths into a sandboxed region, forward branches, and bounded
// backward loops (so termination is guaranteed by construction). The loops
// keep enough work in flight to fill the ROB and to squash on a ring that
// has wrapped.
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "cpu/assembler.hh"
#include "cpu/functional.hh"
#include "cpu/ooo_core.hh"
#include "mem/cache/cache.hh"
#include "mem/simple_mem.hh"
#include "mem/xbar.hh"
#include "sim/rng.hh"

namespace g5r {
namespace {

constexpr std::uint64_t kDataBase = 0x10000;
constexpr std::uint64_t kDataSize = 0x1000;

/// Emit one straight-line instruction (sequence) of case kind @p kind < 9:
/// ALU register-register, ALU immediate, shift-immediate, load or store.
void emitStraight(std::ostringstream& os, Rng& rng, std::uint64_t kind) {
    auto reg = [&] { return 5 + rng.below(11); };  // x5..x15.
    switch (kind) {
    case 0: case 1: case 2: {  // ALU register-register.
        static const char* kOps[] = {"add", "sub", "and", "or",  "xor", "sll",
                                     "srl", "sra", "slt", "sltu", "mul", "div",
                                     "rem"};
        os << "  " << kOps[rng.below(13)] << " x" << reg() << ", x" << reg()
           << ", x" << reg() << "\n";
        break;
    }
    case 3: case 4: case 5: {  // ALU immediate.
        static const char* kOps[] = {"addi", "andi", "ori", "xori", "slti"};
        os << "  " << kOps[rng.below(5)] << " x" << reg() << ", x" << reg() << ", "
           << static_cast<std::int64_t>(rng.below(8192)) - 4096 << "\n";
        break;
    }
    case 6: {  // Shift-immediate (bounded shamt).
        static const char* kOps[] = {"slli", "srli", "srai"};
        os << "  " << kOps[rng.below(3)] << " x" << reg() << ", x" << reg() << ", "
           << rng.below(63) << "\n";
        break;
    }
    case 7: {  // Load (sandboxed address in x20).
        static const std::pair<const char*, unsigned> kLoads[] = {
            {"ld", 0xFF8}, {"lw", 0xFFC}, {"lb", 0xFFF}};
        const auto& [op, mask] = kLoads[rng.below(3)];
        os << "  andi x20, x" << reg() << ", " << mask << "\n"
           << "  li x21, " << kDataBase << "\n"
           << "  add x20, x20, x21\n"
           << "  " << op << " x" << reg() << ", 0(x20)\n";
        break;
    }
    default: {  // Store.
        static const std::pair<const char*, unsigned> kStores[] = {
            {"sd", 0xFF8}, {"sw", 0xFFC}, {"sb", 0xFFF}};
        const auto& [op, mask] = kStores[rng.below(3)];
        os << "  andi x20, x" << reg() << ", " << mask << "\n"
           << "  li x21, " << kDataBase << "\n"
           << "  add x20, x20, x21\n"
           << "  " << op << " x" << reg() << ", 0(x20)\n";
        break;
    }
    }
}

/// Generate a random but well-formed, terminating program.
std::string generateProgram(std::uint64_t seed, unsigned length) {
    Rng rng{seed};
    // Loops draw from their own stream, so every other instruction of a
    // seed's program is the one it generated before loops existed.
    Rng loopRng{seed ^ 0x100Bull};
    unsigned nextLoop = 0;
    std::ostringstream os;
    // Seed registers with arbitrary values.
    for (unsigned r = 5; r <= 15; ++r) {
        os << "  li x" << r << ", " << static_cast<std::int64_t>(rng.below(2'000'000)) -
                                           1'000'000
           << "\n";
    }

    std::multimap<unsigned, unsigned> pendingLabels;  // instr index -> label ids.
    unsigned nextLabel = 0;
    unsigned emitted = 0;

    auto reg = [&] { return 5 + rng.below(11); };  // x5..x15.

    for (unsigned i = 0; i < length; ++i) {
        for (auto [it, end] = pendingLabels.equal_range(i); it != end; ++it) {
            os << "L" << it->second << ":\n";
        }
        pendingLabels.erase(i);
        ++emitted;
        if (loopRng.below(8) == 0) {
            // Bounded backward loop: x22 counts 2..33 iterations down to
            // zero and a bne closes it. The body is 1..12 straight-line
            // instructions, so no branch leaves the loop.
            const unsigned label = nextLoop++;
            os << "  li x22, " << 2 + loopRng.below(32) << "\n"
               << "B" << label << ":\n";
            for (std::uint64_t n = 1 + loopRng.below(12); n > 0; --n) {
                emitStraight(os, loopRng, loopRng.below(9));
            }
            os << "  addi x22, x22, -1\n"
               << "  bne x22, x0, B" << label << "\n";
        }
        const std::uint64_t kind = rng.below(10);
        if (kind < 9) {
            emitStraight(os, rng, kind);
            continue;
        }
        // Forward branch over 1..5 upcoming instructions.
        static const char* kOps[] = {"beq", "bne", "blt", "bge", "bltu", "bgeu"};
        const unsigned label = nextLabel++;
        const unsigned target = i + 1 + static_cast<unsigned>(rng.below(5));
        pendingLabels.emplace(std::min(target, length), label);
        os << "  " << kOps[rng.below(6)] << " x" << reg() << ", x" << reg() << ", L"
           << label << "\n";
    }
    // Flush any labels that point past the end.
    for (const auto& [idx, label] : pendingLabels) os << "L" << label << ":\n";
    os << "  halt\n";
    (void)emitted;
    return os.str();
}

/// Timing system: core + split L1s + xbar + memory.
struct FuzzHarness {
    explicit FuzzHarness(const isa::Program& prog) {
        core = std::make_unique<OooCore>(sim, "cpu", OooCoreParams{}, 0);
        CacheParams cp;
        cp.sizeBytes = 8 * 1024;  // Small, to stress miss/writeback paths.
        cp.assoc = 2;
        cp.mshrs = 6;
        l1i = std::make_unique<Cache>(sim, "l1i", cp);
        l1d = std::make_unique<Cache>(sim, "l1d", cp);
        xbar = std::make_unique<Xbar>(sim, "xbar", Xbar::Params{});
        SimpleMemory::Params mp;
        mp.range = AddrRange{0, 1ULL << 24};
        mp.latency = 30'000;
        mem = std::make_unique<SimpleMemory>(sim, "mem", mp, store);

        core->icachePort().bind(l1i->cpuSidePort());
        core->dcachePort().bind(l1d->cpuSidePort());
        l1i->memSidePort().bind(xbar->addCpuSidePort("i"));
        l1d->memSidePort().bind(xbar->addCpuSidePort("d"));
        xbar->addMemSidePort("m", RouteSpec{mp.range}).bind(mem->port());
        core->setExitCallback([this] { sim.exitSimLoop("done"); });

        for (std::size_t i = 0; i < prog.code.size(); ++i) {
            store.store<std::uint64_t>(i * isa::kInstrBytes, prog.code[i]);
        }
    }

    std::uint64_t memRead(std::uint64_t addr) {
        Packet probe{MemCmd::kReadReq, addr, 8};
        l1d->cpuSidePort().recvFunctional(probe);
        return probe.get<std::uint64_t>();
    }

    Simulation sim;
    BackingStore store;
    std::unique_ptr<OooCore> core;
    std::unique_ptr<Cache> l1i, l1d;
    std::unique_ptr<Xbar> xbar;
    std::unique_ptr<SimpleMemory> mem;
};

/// What the timing core's stats saw during one fuzzed run.
struct CoreCoverage {
    double squashedInsts = 0;
    double robFullStalls = 0;
};

/// Run @p seed's program on the timing core and on the functional golden
/// model, and require identical registers and memory.
void runAgainstGoldenModel(std::uint64_t seed, CoreCoverage& coverage) {
    const std::string source = generateProgram(seed, 150);
    const isa::Program prog = isa::assemble(source);

    // Pre-fill the data region identically on both sides.
    Rng fill{seed ^ 0xF00D};
    FuzzHarness timing{prog};
    BackingStore golden;
    for (std::size_t i = 0; i < prog.code.size(); ++i) {
        golden.store<std::uint64_t>(i * isa::kInstrBytes, prog.code[i]);
    }
    for (std::uint64_t a = 0; a < kDataSize; a += 8) {
        const std::uint64_t v = fill.next();
        timing.store.store<std::uint64_t>(kDataBase + a, v);
        golden.store<std::uint64_t>(kDataBase + a, v);
    }

    isa::FunctionalCore ref{golden, 0};
    ASSERT_EQ(ref.run(10'000'000), isa::StopReason::kHalted) << source;

    const RunResult run = timing.sim.run(10'000'000'000ULL);
    ASSERT_EQ(run.cause, ExitCause::kSimExit) << "timing core did not halt; seed " << seed;

    EXPECT_EQ(timing.core->committedInstructions(), ref.instructionsRetired())
        << "seed " << seed;
    for (unsigned r = 1; r < isa::kNumRegs; ++r) {
        ASSERT_EQ(timing.core->archReg(r), ref.state().read(r))
            << "x" << r << " differs; seed " << seed << "\n" << source;
    }
    for (std::uint64_t a = 0; a < kDataSize; a += 8) {
        ASSERT_EQ(timing.memRead(kDataBase + a), golden.load<std::uint64_t>(kDataBase + a))
            << "mem[0x" << std::hex << (kDataBase + a) << "] differs; seed " << std::dec
            << seed;
    }
    const stats::Group& st = timing.core->statsGroup();
    coverage.squashedInsts = st.find("squashedInsts")->value();
    coverage.robFullStalls = st.find("robFullStalls")->value();
}

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 101, 202, 303, 404, 505};

class CoreFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoreFuzz, RandomProgramMatchesGoldenModel) {
    CoreCoverage coverage;
    runAgainstGoldenModel(GetParam(), coverage);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoreFuzz, ::testing::ValuesIn(kSeeds));

TEST(CoreFuzzCoverage, SomeSeedFillsTheRobAndSquashes) {
    // The backward loops are there to keep a loop body in flight until the
    // ROB fills and a squash lands on a ring that has wrapped. At least one
    // seed must show both, or the fuzzer no longer reaches the ROB's edges.
    unsigned reached = 0;
    for (const std::uint64_t seed : kSeeds) {
        CoreCoverage coverage;
        ASSERT_NO_FATAL_FAILURE(runAgainstGoldenModel(seed, coverage));
        if (coverage.squashedInsts > 0 && coverage.robFullStalls > 0) ++reached;
    }
    EXPECT_GE(reached, 1u);
}

}  // namespace
}  // namespace g5r
