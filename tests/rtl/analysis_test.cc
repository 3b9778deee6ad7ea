// The netlist dataflow-analysis layer (src/rtl/analysis/): SCC condensation
// and levelization, value-range constant propagation, and structural cone
// dedup — plus the determinism guarantees the compiled backend and the
// interpreter's eval order rely on.
#include <gtest/gtest.h>

#include <vector>

#include "exp/thread_pool.hh"
#include "rtl/analysis/cones.hh"
#include "rtl/analysis/const_prop.hh"
#include "rtl/analysis/levelize.hh"
#include "rtl/netlist.hh"
#include "rtl/netlist_graph.hh"

namespace g5r::rtl::analysis {
namespace {

NetlistGraph parse(std::string_view src) { return parseNetlistGraph(src); }

int idx(const NetlistGraph& g, std::string_view name) {
    const auto it = g.byName.find(std::string{name});
    return it == g.byName.end() ? -1 : it->second;
}

// ----------------------------------------------------------- levelization --

TEST(Levelize, ChainLevelsCountPathLength) {
    const auto g = parse(
        "input a\n"
        "not b a\n"
        "not c b\n"
        "not d c\n"
        "output o d\n");
    const auto sched = levelize(g);
    EXPECT_TRUE(sched.acyclic());
    EXPECT_EQ(sched.depth(), 3u);
    EXPECT_EQ(sched.levelOf[idx(g, "a")], 0);
    EXPECT_EQ(sched.levelOf[idx(g, "b")], 1);
    EXPECT_EQ(sched.levelOf[idx(g, "c")], 2);
    EXPECT_EQ(sched.levelOf[idx(g, "d")], 3);
    const std::vector<int> want{idx(g, "b"), idx(g, "c"), idx(g, "d")};
    EXPECT_EQ(sched.order, want);
}

TEST(Levelize, DiamondReconvergesAtMaxPredecessorLevel) {
    const auto g = parse(
        "input a\n"
        "not l a\n"
        "not r a\n"
        "not r2 r\n"
        "and j l r2\n"
        "output o j\n");
    const auto sched = levelize(g);
    // j's level is 1 + max(level(l)=1, level(r2)=2) = 3: longest path wins.
    EXPECT_EQ(sched.levelOf[idx(g, "j")], 3);
    EXPECT_EQ(sched.depth(), 3u);
}

TEST(Levelize, RegistersCutCombinationalPaths) {
    const auto g = parse(
        "input in\n"
        "add next acc in\n"
        "reg acc next 0\n"
        "output sum acc\n");
    const auto sched = levelize(g);
    EXPECT_TRUE(sched.acyclic());
    EXPECT_EQ(sched.levelOf[idx(g, "acc")], 0);   // Reg output is a source.
    EXPECT_EQ(sched.levelOf[idx(g, "next")], 1);  // One gate past sources.
    EXPECT_EQ(sched.depth(), 1u);
}

TEST(Levelize, CycleMembersArePinnedAtLevelZeroAndExcluded) {
    const auto g = parse(
        "input a\n"
        "and x y a\n"
        "and y x a\n"
        "not after x\n"
        "output o after\n");
    const auto sched = levelize(g);
    EXPECT_FALSE(sched.acyclic());
    ASSERT_EQ(sched.cyclicSccs.size(), 1u);
    EXPECT_EQ(sched.cyclic, (std::vector<int>{idx(g, "x"), idx(g, "y")}));
    EXPECT_EQ(sched.levelOf[idx(g, "x")], 0);
    // Downstream logic still stratifies past the broken cone.
    EXPECT_EQ(sched.levelOf[idx(g, "after")], 1);
    for (const int v : sched.order) {
        EXPECT_NE(v, idx(g, "x"));
        EXPECT_NE(v, idx(g, "y"));
    }
}

TEST(Levelize, BitonicDepthIsTwiceTheStageCount) {
    // Each compare-exchange stage contributes a compare level and a mux
    // level; a size-n network has log2(n)*(log2(n)+1)/2 stages.
    const auto depthOf = [](unsigned n) {
        const auto g = parseNetlistGraph(bitonicSorterNetlist(n));
        return levelize(g).depth();
    };
    EXPECT_EQ(depthOf(4), 6u);
    EXPECT_EQ(depthOf(8), 12u);
    EXPECT_EQ(depthOf(16), 20u);
}

TEST(Levelize, ScheduleIsDeterministicAcrossRunsAndThreadCounts) {
    const std::string src = bitonicSorterNetlist(8);
    const auto g = parseNetlistGraph(src);
    const auto reference = levelize(g);

    for (const unsigned jobs : {1u, 2u, 4u}) {
        std::vector<LevelSchedule> results(8);
        exp::ThreadPool pool{jobs};
        for (auto& slot : results) {
            pool.submit([&slot, &src] {
                const auto graph = parseNetlistGraph(src);
                slot = levelize(graph);
            });
        }
        pool.wait();
        for (const auto& sched : results) {
            EXPECT_EQ(sched.order, reference.order);
            EXPECT_EQ(sched.levelOf, reference.levelOf);
        }
    }
}

// ------------------------------------------------------ const propagation --

TEST(ConstProp, FoldsConstantDrivenCones) {
    const auto g = parse(
        "const a 5 8\n"
        "const b 3 8\n"
        "add s a b 8\n"
        "xor x s b 8\n"
        "output o x\n");
    const auto cp = propagateConstants(g, levelize(g));
    EXPECT_TRUE(cp.provablyConstant(idx(g, "s")));
    EXPECT_EQ(cp.range[idx(g, "s")].lo, 8u);
    EXPECT_TRUE(cp.provablyConstant(idx(g, "x")));
    EXPECT_EQ(cp.range[idx(g, "x")].lo, 11u);
}

TEST(ConstProp, AndWithZeroPinsTheConeToZero) {
    const auto g = parse(
        "input data 8\n"
        "const zero 0 8\n"
        "and gated data zero 8\n"
        "output o gated\n");
    const auto cp = propagateConstants(g, levelize(g));
    EXPECT_TRUE(cp.provablyConstant(idx(g, "gated")));
    EXPECT_EQ(cp.range[idx(g, "gated")].lo, 0u);
    EXPECT_FALSE(cp.provablyConstant(idx(g, "data")));  // Inputs stay free.
}

TEST(ConstProp, ConstFoldTracksEvalMaskingSemantics) {
    // 200 + 100 = 300, masked to 8 bits = 44 — exactly what eval() computes.
    const auto g = parse(
        "const a 200 8\n"
        "const b 100 8\n"
        "add s a b 8\n"
        "output o s\n");
    const auto cp = propagateConstants(g, levelize(g));
    const int s = idx(g, "s");
    EXPECT_TRUE(cp.provablyConstant(s));
    EXPECT_EQ(cp.range[s].lo, 44u);
    // The pre-mask range keeps the evidence that bits were dropped.
    EXPECT_EQ(cp.preMask[s].lo, 300u);

    Netlist n{
        "const a 200 8\n"
        "const b 100 8\n"
        "add s a b 8\n"
        "output o s\n"};
    n.eval();
    EXPECT_EQ(n.output("o"), cp.range[s].lo);
}

TEST(ConstProp, DecidesComparesFromDisjointRanges) {
    const auto g = parse(
        "input a 4\n"
        "const c 16 8\n"
        "ltu t a c\n"
        "eq e a a\n"
        "output o t\n"
        "output p e\n");
    const auto cp = propagateConstants(g, levelize(g));
    // a <= 15 < 16 always; a == a trivially.
    EXPECT_TRUE(cp.provablyConstant(idx(g, "t")));
    EXPECT_EQ(cp.range[idx(g, "t")].lo, 1u);
    EXPECT_TRUE(cp.provablyConstant(idx(g, "e")));
    EXPECT_EQ(cp.range[idx(g, "e")].lo, 1u);
}

TEST(ConstProp, SignedCompareFoldsWithSignExtension) {
    // 4-bit 0xF is -1 under lt (signed), so 0xF < 1 holds.
    const auto g = parse(
        "const m 15 4\n"
        "const one 1 4\n"
        "lt t m one\n"
        "output o t\n");
    const auto cp = propagateConstants(g, levelize(g));
    EXPECT_TRUE(cp.provablyConstant(idx(g, "t")));
    EXPECT_EQ(cp.range[idx(g, "t")].lo, 1u);
}

TEST(ConstProp, MuxWithDecidedSelectTakesOneArm) {
    const auto g = parse(
        "input a 8\n"
        "const one 1 1\n"
        "const lo 3 8\n"
        "mux m one lo a 8\n"
        "output o m\n");
    const auto cp = propagateConstants(g, levelize(g));
    EXPECT_TRUE(cp.provablyConstant(idx(g, "m")));
    EXPECT_EQ(cp.range[idx(g, "m")].lo, 3u);
}

TEST(ConstProp, StuckRegisterIsProvenStuck) {
    const auto g = parse(
        "reg r r 7 8\n"
        "output o r\n");
    const auto cp = propagateConstants(g, levelize(g));
    const int r = idx(g, "r");
    EXPECT_TRUE(cp.provablyConstant(r));
    EXPECT_EQ(cp.range[r].lo, 7u);
    EXPECT_TRUE(cp.stuckReg[r]);
}

TEST(ConstProp, CountingRegisterWidensToFullWidth) {
    const auto g = parse(
        "input en 1\n"
        "const one 1 8\n"
        "const zero 0 8\n"
        "mux step en one zero 8\n"
        "add next count step 8\n"
        "reg count next 0 8\n"
        "output value count\n");
    const auto cp = propagateConstants(g, levelize(g));
    const int count = idx(g, "count");
    EXPECT_FALSE(cp.provablyConstant(count));
    EXPECT_FALSE(cp.stuckReg[count]);
    EXPECT_EQ(cp.range[count].lo, 0u);
    EXPECT_EQ(cp.range[count].hi, 255u);  // Widened, not left mid-count.
    // The mux range stayed tight even though the reg widened.
    EXPECT_EQ(cp.range[idx(g, "step")].hi, 1u);
}

TEST(ConstProp, PreMaskProvesTruncationLossOrBenignity) {
    const auto g = parse(
        "input a 16\n"
        "const h 256 16\n"
        "const small 3 16\n"
        "or t a h 16\n"
        "add s t h 8\n"
        "and benign a small 8\n"
        "output o s\n"
        "output p benign\n");
    const auto cp = propagateConstants(g, levelize(g));
    // t >= 256 and h == 256, so t + h >= 512: the 8-bit mask on s always
    // drops bits — proven loss.
    EXPECT_GT(cp.preMask[idx(g, "s")].lo, 255u);
    // a & 3 <= 3 fits every 8-bit mask — proven benign.
    EXPECT_LE(cp.preMask[idx(g, "benign")].hi, 255u);
}

TEST(ConstProp, BitonicNetlistsHaveNoFalseConstants) {
    for (const unsigned n : {4u, 8u}) {
        const auto g = parseNetlistGraph(bitonicSorterNetlist(n));
        const auto cp = propagateConstants(g, levelize(g));
        for (std::size_t i = 0; i < g.nodes.size(); ++i) {
            if (g.nodes[i].op == NetOp::kConst) continue;
            EXPECT_FALSE(cp.provablyConstant(static_cast<int>(i)))
                << "net " << g.nodes[i].name << " wrongly proven constant";
        }
    }
}

// ------------------------------------------------------------- cone dedup --

TEST(Cones, CommutativeOperandOrderDoesNotSplitClasses) {
    const auto g = parse(
        "input a\n"
        "input b\n"
        "and x a b\n"
        "and y b a\n"
        "or o x y\n"
        "output sum o\n");
    const auto dup = findDuplicateCones(g, levelize(g));
    ASSERT_EQ(dup.classes.size(), 1u);
    EXPECT_EQ(dup.classes[0].nodes, (std::vector<int>{idx(g, "x"), idx(g, "y")}));
    EXPECT_EQ(dup.classes[0].coneSize, 1u);
    EXPECT_EQ(dup.redundantNodes, 1u);
}

TEST(Cones, EqualConstantsAreInterchangeableSources) {
    const auto g = parse(
        "input a 8\n"
        "const c1 5 8\n"
        "const c2 5 8\n"
        "add s1 a c1 8\n"
        "add s2 a c2 8\n"
        "xor o s1 s2 8\n"
        "output out o\n");
    const auto dup = findDuplicateCones(g, levelize(g));
    ASSERT_EQ(dup.classes.size(), 1u);
    EXPECT_EQ(dup.classes[0].nodes, (std::vector<int>{idx(g, "s1"), idx(g, "s2")}));
}

TEST(Cones, DistinctInputsMakeDistinctCones) {
    const auto g = parse(
        "input a\n"
        "input b\n"
        "input c\n"
        "and x a b\n"
        "and y a c\n"
        "or o x y\n"
        "output sum o\n");
    const auto dup = findDuplicateCones(g, levelize(g));
    EXPECT_TRUE(dup.classes.empty());
    EXPECT_EQ(dup.combNodes, 3u);
    EXPECT_EQ(dup.distinctCones, 3u);
}

TEST(Cones, NonCommutativeOperandOrderMatters) {
    const auto g = parse(
        "input a 8\n"
        "input b 8\n"
        "sub d1 a b 8\n"
        "sub d2 b a 8\n"
        "or o d1 d2 8\n"
        "output out o\n");
    const auto dup = findDuplicateCones(g, levelize(g));
    EXPECT_TRUE(dup.classes.empty());
}

TEST(Cones, DeepDuplicatesCountWholeConeSize) {
    const auto g = parse(
        "input a\n"
        "input b\n"
        "and m1 a b\n"
        "not n1 m1\n"
        "and m2 b a\n"
        "not n2 m2\n"
        "or o n1 n2\n"
        "output out o\n");
    const auto dup = findDuplicateCones(g, levelize(g));
    // Two classes: {m1, m2} (size-1 cones) and {n1, n2} (size-2 cones).
    ASSERT_EQ(dup.classes.size(), 2u);
    EXPECT_EQ(dup.classes[0].coneSize, 1u);
    EXPECT_EQ(dup.classes[1].coneSize, 2u);
    EXPECT_EQ(dup.redundantNodes, 2u);
}

TEST(Cones, BitonicNetworkHasNoDuplicateCones) {
    // Every compare-exchange reads a distinct lane pair, so a correct
    // generator yields zero duplicates — and the hasher must not invent any.
    const auto g = parseNetlistGraph(bitonicSorterNetlist(8));
    const auto dup = findDuplicateCones(g, levelize(g));
    EXPECT_TRUE(dup.classes.empty());
    EXPECT_EQ(dup.combNodes, 72u);
}

TEST(Cones, HashesAreDeterministicAcrossThreadCounts) {
    const std::string src = bitonicSorterNetlist(8);
    const auto refGraph = parseNetlistGraph(src);
    const auto reference = hashCones(refGraph, levelize(refGraph));

    std::vector<ConeHashes> results(6);
    exp::ThreadPool pool{3};
    for (auto& slot : results) {
        pool.submit([&slot, &src] {
            const auto g = parseNetlistGraph(src);
            slot = hashCones(g, levelize(g));
        });
    }
    pool.wait();
    for (const auto& ch : results) {
        EXPECT_EQ(ch.hash, reference.hash);
        EXPECT_EQ(ch.coneSize, reference.coneSize);
    }
}

}  // namespace
}  // namespace g5r::rtl::analysis
