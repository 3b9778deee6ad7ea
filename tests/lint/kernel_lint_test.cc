// Kernel-model static analysis: duplicate hierarchical signal names,
// zero-width registers, and registers left out of the tick path.
#include <gtest/gtest.h>

#include <cstdint>

#include "lint/kernel_lint.hh"

namespace g5r::lint {
namespace {

using rtl::Module;
using rtl::Reg;

TEST(KernelLint, CleanHierarchyHasNoFindings) {
    Module top{"top"};
    Module child{"datapath", &top};
    Reg<std::uint32_t> a{top, "ctrl", 32};
    Reg<std::uint8_t> b{child, "state", 4};
    top.tick();
    EXPECT_TRUE(run(top).empty());
}

TEST(KernelLint, DuplicateRegisterNamesCorruptVcd) {
    Module top{"top"};
    Reg<std::uint32_t> a{top, "counter", 32};
    Reg<std::uint32_t> b{top, "counter", 32};
    const Report report = run(top);
    const auto dups = report.byRule("G5R-KRNL-DUP-SIGNAL");
    ASSERT_EQ(dups.size(), 1u);
    EXPECT_EQ(dups[0]->severity, Severity::kError);
    EXPECT_EQ(dups[0]->nets, std::vector<std::string>{"top.counter"});
}

TEST(KernelLint, DuplicateSubmoduleNamesAreAlsoErrors) {
    Module top{"top"};
    Module a{"lane", &top};
    Module b{"lane", &top};
    const Report report = run(top);
    const auto dups = report.byRule("G5R-KRNL-DUP-SIGNAL");
    ASSERT_EQ(dups.size(), 1u);
    EXPECT_EQ(dups[0]->nets, std::vector<std::string>{"top.lane"});
}

TEST(KernelLint, ZeroWidthRegister) {
    Module top{"top"};
    Reg<std::uint8_t> z{top, "ghost", 0};
    const Report report = run(top);
    const auto zero = report.byRule("G5R-KRNL-ZERO-WIDTH");
    ASSERT_EQ(zero.size(), 1u);
    EXPECT_EQ(zero[0]->severity, Severity::kError);
    EXPECT_EQ(zero[0]->nets, std::vector<std::string>{"top.ghost"});
}

TEST(KernelLint, NeverLatchedFlagsRegistersOutsideTheTickPath) {
    // Two sibling trees; only the child subtree is ticked, so the parent's
    // own register never latches — exactly the "module missing from the
    // tick path" bug this rule exists for.
    Module top{"top"};
    Module child{"engine", &top};
    Reg<std::uint32_t> stale{top, "stale", 32};
    Reg<std::uint32_t> live{child, "live", 32};
    child.tick();
    const Report report = run(top);
    const auto never = report.byRule("G5R-KRNL-NEVER-LATCHED");
    ASSERT_EQ(never.size(), 1u);
    EXPECT_EQ(never[0]->severity, Severity::kWarning);
    EXPECT_EQ(never[0]->nets, std::vector<std::string>{"top.stale"});
}

TEST(KernelLint, NeverLatchedIsSilentBeforeAnyTick) {
    Module top{"top"};
    Reg<std::uint32_t> r{top, "r", 32};
    EXPECT_TRUE(run(top).byRule("G5R-KRNL-NEVER-LATCHED").empty());
}

TEST(KernelLint, LatchCountsAccumulate) {
    // The count is clock edges per module: a parent's tick latches its
    // children too, a child's own commitCycle() does not latch its parent.
    Module top{"top"};
    Module child{"engine", &top};
    Reg<std::uint32_t> r{top, "r", 32};
    Reg<std::uint32_t> s{child, "s", 32};
    for (int i = 0; i < 5; ++i) top.tick();
    child.beginCycle();
    child.commitCycle();
    EXPECT_EQ(top.latchCount(), 5u);
    EXPECT_EQ(child.latchCount(), 6u);
}

TEST(KernelLint, ImmediateLatchesDoNotCountAsClockEdges) {
    // A register written only through the immediate latch() (a config
    // write) is still outside the tick path once a sibling has ticked.
    Module top{"top"};
    Module config{"config", &top};
    Module engine{"engine", &top};
    Reg<std::uint8_t> irq{config, "irq", 1};
    Reg<std::uint32_t> busy{engine, "busy", 32};
    irq.setD(1);
    irq.latch();
    EXPECT_EQ(irq.q(), 1u);
    EXPECT_EQ(config.latchCount(), 0u);
    EXPECT_TRUE(run(top).byRule("G5R-KRNL-NEVER-LATCHED").empty());
    engine.tick();
    const Report report = run(top);
    const auto never = report.byRule("G5R-KRNL-NEVER-LATCHED");
    ASSERT_EQ(never.size(), 1u);
    EXPECT_EQ(never[0]->nets, std::vector<std::string>{"top.config.irq"});
}

}  // namespace
}  // namespace g5r::lint
