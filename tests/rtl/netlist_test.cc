// Netlist interpreter (the GHDL-path substitute): parsing, evaluation,
// sequential elements, error detection, and the generated bitonic sorter.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "rtl/netlist.hh"
#include "sim/rng.hh"

namespace g5r::rtl {
namespace {

TEST(Netlist, CombinationalGates) {
    Netlist nl{R"(
        input a
        input b
        and y_and a b
        or  y_or  a b
        xor y_xor a b
        not y_not a
        add y_add a b
        sub y_sub a b
        output o_and y_and
        output o_add y_add
        output o_sub y_sub
        output o_not y_not
    )"};
    nl.setInput("a", 0xF0);
    nl.setInput("b", 0x0F);
    nl.eval();
    EXPECT_EQ(nl.output("o_and"), 0u);
    EXPECT_EQ(nl.probe("y_or"), 0xFFu);
    EXPECT_EQ(nl.probe("y_xor"), 0xFFu);
    EXPECT_EQ(nl.output("o_add"), 0xFFu);
    EXPECT_EQ(nl.output("o_sub"), 0xE1u);
    EXPECT_EQ(nl.output("o_not"), ~std::uint64_t{0xF0});
}

TEST(Netlist, ComparisonsAndMux) {
    Netlist nl{R"(
        input a
        input b
        lt  s  a b      # signed
        ltu u  a b      # unsigned
        eq  e  a b
        mux m  s a b    # min(a, b) signed
        output min m
    )"};
    nl.setInput("a", static_cast<std::uint64_t>(-5));
    nl.setInput("b", 3);
    nl.eval();
    EXPECT_EQ(nl.probe("s"), 1u);   // -5 < 3 signed
    EXPECT_EQ(nl.probe("u"), 0u);   // huge unsigned > 3
    EXPECT_EQ(nl.probe("e"), 0u);
    EXPECT_EQ(nl.output("min"), static_cast<std::uint64_t>(-5));
}

TEST(Netlist, SignedCompareHonorsNarrowWidths) {
    // Regression: lt used to zero-extend the masked storage before the
    // signed cast, so for any net narrower than 64 bits it behaved exactly
    // like ltu (a 4-bit 0xF compared as 15, not -1).
    Netlist nl{R"(
        input a 4
        input b 4
        lt  s  a b
        ltu u  a b
    )"};
    nl.setInput("a", 0xF);  // -1 as a 4-bit signed value.
    nl.setInput("b", 0x3);  // +3.
    nl.eval();
    EXPECT_EQ(nl.probe("s"), 1u);  // -1 < 3 signed.
    EXPECT_EQ(nl.probe("u"), 0u);  // 15 > 3 unsigned.
    nl.setInput("a", 0x6);
    nl.setInput("b", 0x9);  // -7 as 4-bit signed.
    nl.eval();
    EXPECT_EQ(nl.probe("s"), 0u);  // 6 > -7 signed.
    EXPECT_EQ(nl.probe("u"), 1u);  // 6 < 9 unsigned.
}

TEST(Netlist, SignedCompareMixedWidths) {
    // Each operand sign-extends from its own declared width.
    Netlist nl{R"(
        input a 4
        input b 8
        lt s a b
    )"};
    nl.setInput("a", 0x8);   // -8 in 4 bits.
    nl.setInput("b", 0xF8);  // -8 in 8 bits.
    nl.eval();
    EXPECT_EQ(nl.probe("s"), 0u);  // Equal once both are sign-extended.
    nl.setInput("b", 0xF9);        // -7.
    nl.eval();
    EXPECT_EQ(nl.probe("s"), 1u);  // -8 < -7.
}

TEST(Netlist, ActivityDrivenEvalSkipsQuietCones) {
    Netlist nl{R"(
        input a
        input b
        input c
        add ab a b
        add abc ab c
        not nc c
        output o abc
    )"};
    nl.setInput("a", 1);
    nl.setInput("b", 2);
    nl.setInput("c", 3);
    nl.eval();
    EXPECT_EQ(nl.lastEvalComputedNodes(), 3u);  // Cold start: everything.
    EXPECT_EQ(nl.output("o"), 6u);

    nl.eval();  // Nothing changed: full skip.
    EXPECT_EQ(nl.lastEvalComputedNodes(), 0u);
    EXPECT_EQ(nl.output("o"), 6u);

    nl.setInput("a", 10);  // Touches ab and abc, but not nc.
    nl.eval();
    EXPECT_EQ(nl.lastEvalComputedNodes(), 2u);
    EXPECT_EQ(nl.output("o"), 15u);

    nl.setInput("a", 10);  // Unchanged value: still a full skip.
    nl.eval();
    EXPECT_EQ(nl.lastEvalComputedNodes(), 0u);
}

TEST(Netlist, ActivityDrivenEvalStopsWhenValuesRecomputeEqual) {
    // b changes but a&b recomputes to the same value, so the downstream
    // not-gate never re-evaluates.
    Netlist nl{R"(
        input a
        input b
        and ab a b
        not nab ab
        output o nab
    )"};
    nl.setInput("a", 0);
    nl.setInput("b", 1);
    nl.eval();
    const std::uint64_t first = nl.output("o");
    nl.setInput("b", 3);  // ab stays 0.
    nl.eval();
    EXPECT_EQ(nl.lastEvalComputedNodes(), 1u);  // Only ab recomputed.
    EXPECT_EQ(nl.output("o"), first);
}

TEST(Netlist, ActivityDrivenEvalTracksRegisterLatches) {
    // Accumulator with a constant increment: every tick changes acc, so the
    // adder must recompute every tick even with inputs untouched.
    Netlist nl{R"(
        const one 1
        add next acc one
        reg acc next 0
        output sum acc
    )"};
    for (int i = 1; i <= 5; ++i) {
        nl.tick();
        EXPECT_EQ(nl.probe("acc"), static_cast<std::uint64_t>(i));
    }
    nl.eval();
    nl.reset();
    nl.eval();
    EXPECT_EQ(nl.output("sum"), 0u);
    nl.tick();
    EXPECT_EQ(nl.probe("acc"), 1u);  // Counting resumes after reset.
}

TEST(Netlist, RegistersLatchOnTick) {
    // Accumulator: acc <= acc + in.
    Netlist nl{R"(
        input in
        add next acc in
        reg acc next 0
        output sum acc
    )"};
    nl.setInput("in", 5);
    nl.eval();
    EXPECT_EQ(nl.output("sum"), 0u);  // eval alone does not latch
    nl.tick();
    EXPECT_EQ(nl.probe("acc"), 5u);
    nl.tick();
    nl.tick();
    nl.eval();
    EXPECT_EQ(nl.output("sum"), 15u);
    nl.reset();
    nl.eval();
    EXPECT_EQ(nl.output("sum"), 0u);
}

TEST(Netlist, RegInitValues) {
    Netlist nl{R"(
        const zero 0
        reg r zero 42
        output o r
    )"};
    nl.eval();
    EXPECT_EQ(nl.output("o"), 42u);
    nl.tick();
    nl.eval();
    EXPECT_EQ(nl.output("o"), 0u);
}

TEST(Netlist, WatchAccessorsTolerateTheProbeMissSentinel) {
    Netlist nl{R"(
        input a 8
        output o a
    )"};
    nl.setInput("a", 0x1FF);
    nl.eval();

    // probeIndex() documents -1 for unknown nets and promises never to
    // throw; the index-based accessors must honour the same contract
    // instead of indexing nodes_ out of bounds.
    EXPECT_EQ(nl.probeIndex("nope"), -1);
    EXPECT_EQ(nl.valueAt(-1), 0u);
    EXPECT_EQ(nl.widthAt(-1), 0u);
    EXPECT_EQ(nl.nameAt(-1), "");
    const int past = static_cast<int>(nl.numNodes());
    EXPECT_EQ(nl.valueAt(past), 0u);
    EXPECT_EQ(nl.widthAt(past), 0u);
    EXPECT_EQ(nl.nameAt(past), "");

    // In-range indices still resolve normally.
    const int idx = nl.probeIndex("a");
    ASSERT_GE(idx, 0);
    EXPECT_EQ(nl.valueAt(idx), 0xFFu);
    EXPECT_EQ(nl.widthAt(idx), 8u);
    EXPECT_EQ(nl.nameAt(idx), "a");
}

TEST(Netlist, ErrorDetection) {
    EXPECT_THROW(Netlist{"bogus x a b\n"}, NetlistError);
    EXPECT_THROW(Netlist{"and y a b\n"}, NetlistError);           // Undefined nets.
    EXPECT_THROW(Netlist{"input a\ninput a\n"}, NetlistError);    // Duplicate.
    EXPECT_THROW(Netlist{"output o nowhere\n"}, NetlistError);
    // Combinational cycle: a = not b, b = not a.
    EXPECT_THROW(Netlist{"not a b\nnot b a\n"}, NetlistError);
    // Sequential loop through a reg is legal.
    EXPECT_NO_THROW(Netlist{"reg r inv 0\nnot inv r\n"});
}

TEST(Netlist, FourInputBitonicSortsAllPermutations) {
    Netlist nl{bitonicSorterNetlist(4)};
    std::vector<std::uint64_t> values{3, 1, 4, 2};
    std::sort(values.begin(), values.end());
    std::vector<std::uint64_t> perm = values;
    do {
        for (unsigned i = 0; i < 4; ++i) nl.setInput("in" + std::to_string(i), perm[i]);
        nl.eval();
        for (unsigned i = 0; i < 4; ++i) {
            EXPECT_EQ(nl.output("out" + std::to_string(i)), values[i]);
        }
    } while (std::next_permutation(perm.begin(), perm.end()));
}

class BitonicSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitonicSweep, SortsRandomVectors) {
    const unsigned n = GetParam();
    Netlist nl{bitonicSorterNetlist(n)};
    Rng rng{n * 7919};
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<std::int64_t> data(n);
        for (auto& v : data) {
            v = static_cast<std::int64_t>(rng.below(2000)) - 1000;  // Signed values.
        }
        for (unsigned i = 0; i < n; ++i) {
            nl.setInput("in" + std::to_string(i), static_cast<std::uint64_t>(data[i]));
        }
        nl.eval();
        std::sort(data.begin(), data.end());
        for (unsigned i = 0; i < n; ++i) {
            EXPECT_EQ(static_cast<std::int64_t>(nl.output("out" + std::to_string(i))),
                      data[i])
                << "n=" << n << " trial=" << trial << " lane=" << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitonicSweep, ::testing::Values(2u, 4u, 8u, 16u, 32u));

// ------------------------------------------------- schedule and bitonic helpers --

TEST(Netlist, ScheduleIsLevelMajorAndCoversAllCombNodes) {
    Netlist nl{bitonicSorterNetlist(8)};
    const auto& sched = nl.schedule();
    EXPECT_TRUE(sched.acyclic());
    EXPECT_EQ(sched.depth(), 12u);
    std::size_t comb = 0;
    for (const auto& node : nl.graph().nodes) {
        if (!netOpIsSource(node.op)) ++comb;
    }
    EXPECT_EQ(sched.order.size(), comb);
    for (std::size_t i = 1; i < sched.order.size(); ++i) {
        EXPECT_LE(sched.levelOf[sched.order[i - 1]], sched.levelOf[sched.order[i]]);
    }
}

TEST(Netlist, BitonicStagesIsTheNetworkDepth) {
    for (const unsigned n : {2u, 4u, 8u, 16u, 64u}) {
        EXPECT_EQ(bitonicStages(n), Netlist{bitonicSorterNetlist(n)}.schedule().depth() / 2)
            << "n=" << n;
    }
    EXPECT_EQ(bitonicStages(16), 10u);
}

TEST(Netlist, BitonicSpecSizeIsStrict) {
    EXPECT_EQ(parseBitonicSpec("bitonic"), 8u);
    EXPECT_EQ(parseBitonicSpec("bitonic:16"), 16u);
    EXPECT_EQ(parseBitonicSpec("bitonic:4294967295"), 4294967295u);
    // Trailing garbage, overflow past unsigned (once truncated to 4), signs,
    // spaces and empty sizes are all errors; so is an unknown design.
    for (const char* bad : {"bitonic:8x", "bitonic:4294967300", "bitonic:-8", "bitonic:+8",
                            "bitonic: 8", "bitonic:", "sorter:8", ""}) {
        EXPECT_THROW(parseBitonicSpec(bad), NetlistError) << bad;
    }
}

TEST(Netlist, BitonicConfigIsParsedStrictly) {
    EXPECT_EQ(parseBitonicConfig("").n, 16u);
    EXPECT_FALSE(parseBitonicConfig("").compiled);
    const BitonicConfig c = parseBitonicConfig("eval=compiled,n=32");
    EXPECT_EQ(c.n, 32u);
    EXPECT_TRUE(c.compiled);
    EXPECT_FALSE(parseBitonicConfig("n=2,eval=dirty").compiled);
    for (const char* bad : {"n=12", "n=1", "n=128", "n=8x", "n=", "xn=8", "eval=fast",
                            "eval=", "n=8,bogus"}) {
        try {
            parseBitonicConfig(bad);
            ADD_FAILURE() << "accepted '" << bad << "'";
        } catch (const NetlistError& e) {
            EXPECT_NE(std::string{e.what()}.find(std::string{"'"} + bad + "'"),
                      std::string::npos)
                << e.what();
        }
    }
}

}  // namespace
}  // namespace g5r::rtl
