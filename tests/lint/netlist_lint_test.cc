// Netlist static analysis: one fixture per rule, asserting rule ID,
// severity, and the cited net names — plus the no-false-positive guarantee
// over the generated bitonic sorter and the strict elaboration path.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "lint/netlist_lint.hh"
#include "rtl/netlist.hh"
#include "sim/logging.hh"

namespace g5r::lint {
namespace {

const Diagnostic& only(const Report& report, std::string_view rule) {
    const auto found = report.byRule(rule);
    EXPECT_EQ(found.size(), 1u) << "expected exactly one " << rule;
    static const Diagnostic kEmpty{};
    return found.empty() ? kEmpty : *found.front();
}

TEST(NetlistLint, CombLoopNamesEveryNetOnThePath) {
    const Report report = runNetlistSource(R"(
        input a
        and x y a
        and y x a
        output o x
    )");
    EXPECT_TRUE(report.hasErrors());
    const Diagnostic& d = only(report, "G5R-COMB-LOOP");
    EXPECT_EQ(d.severity, Severity::kError);
    // Full cycle path, closed: x -> y -> x.
    ASSERT_EQ(d.nets.size(), 3u);
    EXPECT_EQ(d.nets.front(), d.nets.back());
    EXPECT_NE(std::find(d.nets.begin(), d.nets.end(), "x"), d.nets.end());
    EXPECT_NE(std::find(d.nets.begin(), d.nets.end(), "y"), d.nets.end());
    // The message spells the path out for humans too.
    EXPECT_NE(d.message.find("x -> y -> x"), std::string::npos) << d.message;
}

TEST(NetlistLint, SelfLoopIsACombLoop) {
    const Report report = runNetlistSource("input a\nand x x a\noutput o x\n");
    const Diagnostic& d = only(report, "G5R-COMB-LOOP");
    EXPECT_EQ(d.severity, Severity::kError);
    ASSERT_EQ(d.nets.size(), 2u);
    EXPECT_EQ(d.nets[0], "x");
    EXPECT_EQ(d.nets[1], "x");
}

TEST(NetlistLint, LongerLoopListsAllMembers) {
    const Report report = runNetlistSource(R"(
        input i
        and a c i
        and b a i
        and c b i
        output o a
    )");
    const Diagnostic& d = only(report, "G5R-COMB-LOOP");
    ASSERT_EQ(d.nets.size(), 4u);  // a -> b -> c -> a (closed).
    for (const char* net : {"a", "b", "c"}) {
        EXPECT_NE(std::find(d.nets.begin(), d.nets.end(), net), d.nets.end())
            << net << " missing from cycle path";
    }
}

TEST(NetlistLint, SequentialLoopThroughRegIsLegal) {
    const Report report = runNetlistSource("reg r inv 0\nnot inv r\noutput o r\n");
    EXPECT_TRUE(report.byRule("G5R-COMB-LOOP").empty());
    EXPECT_FALSE(report.hasErrors());
}

TEST(NetlistLint, MultiDriver) {
    const Report report = runNetlistSource(R"(
        input a
        input b
        and x a b
        or x a b
        output o x
    )");
    const Diagnostic& d = only(report, "G5R-MULTI-DRIVER");
    EXPECT_EQ(d.severity, Severity::kError);
    ASSERT_EQ(d.nets.size(), 1u);
    EXPECT_EQ(d.nets[0], "x");
    EXPECT_EQ(d.loc.line, 5u);  // The redefinition, not the first driver.
    EXPECT_NE(d.message.find("line 4"), std::string::npos) << d.message;
}

TEST(NetlistLint, UndrivenOperands) {
    const Report report = runNetlistSource("and y a b\noutput o y\n");
    const auto undriven = report.byRule("G5R-UNDRIVEN");
    ASSERT_EQ(undriven.size(), 2u);
    EXPECT_EQ(undriven[0]->severity, Severity::kError);
    EXPECT_EQ(undriven[0]->nets, std::vector<std::string>{"a"});
    EXPECT_EQ(undriven[1]->nets, std::vector<std::string>{"b"});
}

TEST(NetlistLint, UndrivenOutputTarget) {
    const Report report = runNetlistSource("input a\noutput o nowhere\n");
    const auto undriven = report.byRule("G5R-UNDRIVEN");
    ASSERT_EQ(undriven.size(), 1u);
    EXPECT_EQ(undriven[0]->nets, std::vector<std::string>{"nowhere"});
}

TEST(NetlistLint, FloatingInput) {
    const Report report = runNetlistSource(R"(
        input a
        input unused
        not y a
        output o y
    )");
    const Diagnostic& d = only(report, "G5R-FLOATING-INPUT");
    EXPECT_EQ(d.severity, Severity::kWarning);
    EXPECT_EQ(d.nets, std::vector<std::string>{"unused"});
    EXPECT_FALSE(report.hasErrors());  // Warnings only.
}

TEST(NetlistLint, FloatingNet) {
    const Report report = runNetlistSource(R"(
        input a
        not y a
        not z a
        output o y
    )");
    const Diagnostic& d = only(report, "G5R-FLOATING-NET");
    EXPECT_EQ(d.severity, Severity::kWarning);
    EXPECT_EQ(d.nets, std::vector<std::string>{"z"});
}

TEST(NetlistLint, DeadConeListsEveryUnreachableNet) {
    // y and z form a cone that reaches no output; a feeds only that cone.
    const Report report = runNetlistSource(R"(
        input a
        input b
        and y a b
        xor z y b
        output o b
    )");
    const Diagnostic& d = only(report, "G5R-DEAD-CONE");
    EXPECT_EQ(d.severity, Severity::kWarning);
    EXPECT_EQ(d.nets, (std::vector<std::string>{"a", "y", "z"}));
}

TEST(NetlistLint, DeadConeSeesThroughRegisters) {
    // Logic feeding a reg that feeds an output is alive, not dead.
    const Report report = runNetlistSource(R"(
        input in
        add next acc in
        reg acc next 0
        output sum acc
    )");
    EXPECT_TRUE(report.byRule("G5R-DEAD-CONE").empty());
    EXPECT_TRUE(report.empty()) << "accumulator should lint clean";
}

TEST(NetlistLint, WidthTruncation) {
    const Report report = runNetlistSource(R"(
        input a 32
        input b 32
        add s a b 8
        output o s
    )");
    const Diagnostic& d = only(report, "G5R-WIDTH-TRUNC");
    EXPECT_EQ(d.severity, Severity::kWarning);
    EXPECT_EQ(d.nets, std::vector<std::string>{"s"});
    EXPECT_TRUE(report.byRule("G5R-WIDTH-MISMATCH").empty());
}

TEST(NetlistLint, WidthMismatch) {
    const Report report = runNetlistSource(R"(
        input a 32
        input b 16
        add s a b
        output o s
    )");
    const Diagnostic& d = only(report, "G5R-WIDTH-MISMATCH");
    EXPECT_EQ(d.severity, Severity::kWarning);
    EXPECT_EQ(d.nets, (std::vector<std::string>{"s", "a", "b"}));
    EXPECT_TRUE(report.byRule("G5R-WIDTH-TRUNC").empty());  // s is 64 bits.
}

TEST(NetlistLint, MuxSelectWiderThanOneBit) {
    const Report report = runNetlistSource(R"(
        input sel 2
        input a
        input b
        mux m sel a b
        output o m
    )");
    const Diagnostic& d = only(report, "G5R-WIDTH-MISMATCH");
    EXPECT_EQ(d.nets, (std::vector<std::string>{"m", "sel"}));
}

TEST(NetlistLint, NoOutput) {
    const Report report = runNetlistSource("input a\nreg r a\n");
    EXPECT_FALSE(report.byRule("G5R-NO-OUTPUT").empty());
}

TEST(NetlistLint, SyntaxErrors) {
    const Report report = runNetlistSource("frobnicate x a\nconst c notanumber\n");
    const auto syntax = report.byRule("G5R-SYNTAX");
    ASSERT_EQ(syntax.size(), 2u);
    EXPECT_EQ(syntax[0]->severity, Severity::kError);
    EXPECT_EQ(syntax[0]->loc.line, 1u);
    EXPECT_EQ(syntax[1]->loc.line, 2u);
}

TEST(NetlistLint, BitonicSorterIsClean) {
    // The acceptance gate: zero findings — not merely zero errors — on the
    // generated 8-lane sorter.
    const Report report = runNetlistSource(rtl::bitonicSorterNetlist(8));
    EXPECT_TRUE(report.empty()) << [&] {
        std::ostringstream os;
        emitText(report, os);
        return os.str();
    }();
}

TEST(NetlistLint, SourceLocationsCarryTheFileName) {
    const Report report = runNetlistSource("and y a b\n", "designs/adder.nl");
    ASSERT_FALSE(report.empty());
    EXPECT_EQ(report.diagnostics().front().loc.file, "designs/adder.nl");
    const std::string text = formatDiagnostic(report.diagnostics().front());
    EXPECT_NE(text.find("designs/adder.nl:1:"), std::string::npos) << text;
}

// --- semantic rules (value-range / cone analysis) ---------------------------

TEST(NetlistLint, ProvablyBenignTruncationIsSilent) {
    // a & 3 <= 3 always fits 8 bits: structurally a truncation (16 -> 8),
    // semantically proven harmless.
    const Report report = runNetlistSource(R"(
        input a 16
        const three 3 16
        and masked a three 8
        output o masked
    )");
    EXPECT_TRUE(report.byRule("G5R-WIDTH-TRUNC").empty());
    EXPECT_TRUE(report.byRule("G5R-TRUNC-LOSS").empty());
    EXPECT_TRUE(report.empty());
}

TEST(NetlistLint, ProvenLossTruncationUpgradesToTruncLoss) {
    const Report report = runNetlistSource(R"(
        input a 16
        const h 256 16
        or t a h 16
        add s t h 8
        output o s
    )");
    const Diagnostic& d = only(report, "G5R-TRUNC-LOSS");
    EXPECT_EQ(d.severity, Severity::kWarning);
    EXPECT_EQ(d.nets, std::vector<std::string>{"s"});
    // The range evidence is spelled out for the user.
    EXPECT_NE(d.message.find("[512, "), std::string::npos) << d.message;
    EXPECT_TRUE(report.byRule("G5R-WIDTH-TRUNC").empty());
}

TEST(NetlistLint, PossibleTruncationKeepsWidthTruncWithRangeEvidence) {
    const Report report = runNetlistSource(R"(
        input a 32
        input b 32
        add s a b 8
        output o s
    )");
    const Diagnostic& d = only(report, "G5R-WIDTH-TRUNC");
    EXPECT_NE(d.message.find("value range"), std::string::npos) << d.message;
    EXPECT_TRUE(report.byRule("G5R-TRUNC-LOSS").empty());
}

TEST(NetlistLint, ConstNetFiresOnConstDrivenCone) {
    const Report report = runNetlistSource(R"(
        input data 8
        const zero 0 8
        and gated data zero 8
        or out gated data 8
        output o out
    )");
    const Diagnostic& d = only(report, "G5R-CONST-NET");
    EXPECT_EQ(d.severity, Severity::kWarning);
    EXPECT_EQ(d.nets, std::vector<std::string>{"gated"});
    EXPECT_NE(d.message.find("constant 0"), std::string::npos) << d.message;
    // Declared constants themselves never fire the rule.
    EXPECT_EQ(report.byRule("G5R-CONST-NET").size(), 1u);
}

TEST(NetlistLint, ConstNetFiresOnStuckRegister) {
    const Report report = runNetlistSource(R"(
        reg r r 7 8
        output o r
    )");
    const Diagnostic& d = only(report, "G5R-CONST-NET");
    EXPECT_EQ(d.nets, std::vector<std::string>{"r"});
    EXPECT_NE(d.message.find("stuck at 7"), std::string::npos) << d.message;
}

TEST(NetlistLint, FreeRunningCounterIsNotStuck) {
    const Report report = runNetlistSource(R"(
        const one 1 8
        add next acc one 8
        reg acc next 0 8
        output sum acc
    )");
    EXPECT_TRUE(report.byRule("G5R-CONST-NET").empty());
}

TEST(NetlistLint, ConstCompareFiresWithPolarity) {
    const Report report = runNetlistSource(R"(
        input a 4
        const c 16 8
        ltu always a c
        eq  never a c
        mux m always a a 4
        mux n never a a 4
        or  o m n 4
        output out o
    )");
    const auto compares = report.byRule("G5R-CONST-COMPARE");
    ASSERT_EQ(compares.size(), 2u);
    EXPECT_NE(compares[0]->message.find("always true"), std::string::npos)
        << compares[0]->message;
    EXPECT_NE(compares[1]->message.find("always false"), std::string::npos)
        << compares[1]->message;
    // Decided compares are reported as compares, not as constant nets.
    EXPECT_TRUE(report.byRule("G5R-CONST-NET").empty());
}

TEST(NetlistLint, UndecidableCompareIsSilent) {
    const Report report = runNetlistSource(R"(
        input a 8
        input b 8
        ltu t a b
        mux m t a b 8
        output o m
    )");
    EXPECT_TRUE(report.byRule("G5R-CONST-COMPARE").empty());
    EXPECT_TRUE(report.empty());
}

TEST(NetlistLint, DupConeReportsEveryClassMember) {
    const Report report = runNetlistSource(R"(
        input a
        input b
        and x a b
        and y b a
        or o x y
        output sum o
    )");
    const Diagnostic& d = only(report, "G5R-DUP-CONE");
    EXPECT_EQ(d.severity, Severity::kWarning);
    EXPECT_EQ(d.nets, (std::vector<std::string>{"x", "y"}));
    EXPECT_NE(d.message.find("'x' is duplicated by 'y'"), std::string::npos)
        << d.message;
}

TEST(NetlistLint, DistinctConesDoNotFireDupCone) {
    const Report report = runNetlistSource(R"(
        input a
        input b
        input c
        and x a b
        and y a c
        or o x y
        output sum o
    )");
    EXPECT_TRUE(report.byRule("G5R-DUP-CONE").empty());
    EXPECT_TRUE(report.empty());
}

TEST(NetlistLint, DeepLogicFiresPastTheConfiguredBudget) {
    std::ostringstream src;
    src << "input a\n";
    std::string prev = "a";
    for (int i = 0; i < 6; ++i) {
        src << "not n" << i << ' ' << prev << "\n";
        prev = strCat('n', i);
    }
    src << "output o " << prev << "\n";

    NetlistLintOptions tight;
    tight.maxLogicDepth = 4;
    const Report deep = runNetlistSource(src.str(), "", tight);
    const Diagnostic& d = only(deep, "G5R-DEEP-LOGIC");
    EXPECT_EQ(d.severity, Severity::kWarning);
    EXPECT_EQ(d.nets, std::vector<std::string>{"n5"});  // Critical-path end.
    EXPECT_NE(d.message.find("depth is 6"), std::string::npos) << d.message;

    // Default budget (64) tolerates the same chain.
    EXPECT_TRUE(runNetlistSource(src.str()).byRule("G5R-DEEP-LOGIC").empty());
}

TEST(NetlistLint, SocNetlistsPassTheZeroFindingsGate) {
    // The netlist designs the SoC actually instantiates (the bitonic model's
    // default n=16 and the test size n=8) must stay free of every rule in
    // the registry — semantic rules included.
    for (const unsigned n : {8u, 16u}) {
        const Report report = runNetlistSource(rtl::bitonicSorterNetlist(n));
        EXPECT_TRUE(report.empty()) << "bitonic n=" << n << ":\n" << [&] {
            std::ostringstream os;
            emitText(report, os);
            return os.str();
        }();
    }
}

// --- strict elaboration -----------------------------------------------------

TEST(NetlistStrict, ConstructorThrowsWithFullCyclePath) {
    try {
        rtl::Netlist nl{"not a b\nnot b a\noutput o a\n"};
        FAIL() << "expected NetlistError";
    } catch (const rtl::NetlistError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("G5R-COMB-LOOP"), std::string::npos) << what;
        EXPECT_NE(what.find("a -> b -> a"), std::string::npos) << what;
    }
}

TEST(NetlistStrict, WarningsDoNotBlockElaboration) {
    // Floating nets and dead cones are warnings; the design still builds.
    rtl::Netlist nl{"input a\nnot y a\nnot z a\noutput o y\n"};
    nl.setInput("a", 1);
    nl.eval();
    EXPECT_EQ(nl.output("o"), ~std::uint64_t{1});
}

TEST(NetlistStrict, ExplicitWidthsMaskValues) {
    rtl::Netlist nl{"input a 16\nadd s a a 8\noutput o s\n"};
    nl.setInput("a", 0xFF);
    nl.eval();
    EXPECT_EQ(nl.output("o"), 0xFEu);  // (0xFF + 0xFF) masked to 8 bits.
}

TEST(NetlistStrict, GraphAccessorSupportsRelint) {
    const rtl::Netlist nl{rtl::bitonicSorterNetlist(4)};
    EXPECT_TRUE(run(nl).empty());
    EXPECT_EQ(nl.graph().nodes.size(), nl.numNodes());
}

}  // namespace
}  // namespace g5r::lint
