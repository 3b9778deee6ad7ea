// RTL kernel: two-phase register semantics, hierarchy, reset, VCD output.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "rtl/kernel.hh"
#include "rtl/vcd.hh"

namespace g5r::rtl {
namespace {

// A 4-bit counter with enable and wrap.
class Counter final : public Module {
public:
    explicit Counter(Module* parent = nullptr)
        : Module("counter", parent), count(*this, "count", 4), enable(false) {}

    void evalComb() override {
        if (enable) count.setD((count.q() + 1) & 0xF);
    }

    Reg<std::uint8_t> count;
    bool enable;
};

TEST(RtlKernel, RegisterLatchesOnTickOnly) {
    Counter c;
    c.enable = true;
    EXPECT_EQ(c.count.q(), 0);
    c.evalComb();           // Combinational evaluation alone...
    EXPECT_EQ(c.count.q(), 0);  // ...does not change q.
    c.tick();
    EXPECT_EQ(c.count.q(), 1);
    for (int i = 0; i < 14; ++i) c.tick();
    EXPECT_EQ(c.count.q(), 15);
    c.tick();
    EXPECT_EQ(c.count.q(), 0);  // 4-bit wrap.
}

TEST(RtlKernel, HoldByDefault) {
    Counter c;
    c.enable = false;  // evalComb writes nothing: register must hold.
    c.tick();
    c.tick();
    EXPECT_EQ(c.count.q(), 0);
    c.enable = true;
    c.tick();
    EXPECT_EQ(c.count.q(), 1);
    c.enable = false;
    c.tick();
    EXPECT_EQ(c.count.q(), 1);
}

TEST(RtlKernel, ResetRestoresInitialValues) {
    Counter c;
    c.enable = true;
    for (int i = 0; i < 5; ++i) c.tick();
    EXPECT_EQ(c.count.q(), 5);
    c.reset();
    EXPECT_EQ(c.count.q(), 0);
}

TEST(RtlKernel, ImmediateLatchTakesEffectAtOnceAndNextEdgeHolds) {
    Counter c;
    c.count.setD(9);
    c.count.latch();
    EXPECT_EQ(c.count.q(), 9);   // Visible at once, no clock edge needed...
    EXPECT_EQ(c.latchCount(), 0u);  // ...and not counted as one.
    c.tick();                    // evalComb writes nothing: hold by default.
    EXPECT_EQ(c.count.q(), 9);
    EXPECT_EQ(c.latchCount(), 1u);
    c.enable = true;
    c.tick();
    EXPECT_EQ(c.count.q(), 10);
}

// Two-phase correctness: a swap circuit (a <- b, b <- a simultaneously)
// only works with proper flip-flop semantics.
class Swapper final : public Module {
public:
    Swapper() : Module("swapper"), a(*this, "a", 8, 1), b(*this, "b", 8, 2) {}
    void evalComb() override {
        a.setD(b.q());
        b.setD(a.q());
    }
    Reg<std::uint8_t> a, b;
};

TEST(RtlKernel, SimultaneousSwapIsRaceFree) {
    Swapper s;
    s.tick();
    EXPECT_EQ(s.a.q(), 2);
    EXPECT_EQ(s.b.q(), 1);
    s.tick();
    EXPECT_EQ(s.a.q(), 1);
    EXPECT_EQ(s.b.q(), 2);
}

// Hierarchy: parent tick drives children.
class Pair final : public Module {
public:
    Pair() : Module("pair"), c0(this), c1(this) {}
    Counter c0, c1;
};

TEST(RtlKernel, HierarchyTicksChildren) {
    Pair p;
    p.c0.enable = true;
    p.c1.enable = true;
    p.tick();
    p.tick();
    EXPECT_EQ(p.c0.count.q(), 2);
    EXPECT_EQ(p.c1.count.q(), 2);
    p.reset();
    EXPECT_EQ(p.c0.count.q(), 0);
}

TEST(RtlVcd, ProducesParsableWaveform) {
    const std::string path = ::testing::TempDir() + "/counter.vcd";
    Counter c;
    c.enable = true;
    {
        VcdWriter vcd{path, c};
        ASSERT_TRUE(vcd.ok());
        for (std::uint64_t cycle = 0; cycle < 20; ++cycle) {
            c.tick();
            vcd.dumpCycle(cycle);
        }
        EXPECT_GT(vcd.bytesWritten(), 0u);
    }
    std::ifstream in{path};
    std::stringstream content;
    content << in.rdbuf();
    const std::string text = content.str();
    EXPECT_NE(text.find("$timescale"), std::string::npos);
    EXPECT_NE(text.find("$var reg 4"), std::string::npos);
    EXPECT_NE(text.find("count"), std::string::npos);
    EXPECT_NE(text.find("#0"), std::string::npos);
    EXPECT_NE(text.find("#19"), std::string::npos);
    std::remove(path.c_str());
}

// Golden waveform: a two-level design with registers of mixed widths and
// non-zero reset values, driven through every kernel path (tick, the
// procedural beginCycle/commitCycle pair, an immediate latch, reset).
class Lane final : public Module {
public:
    Lane(Module* parent, std::string laneName, std::uint16_t step)
        : Module(std::move(laneName), parent), flag(*this, "flag", 1, 1),
          acc(*this, "acc", 12, 0xABC), step_(step) {}
    void evalComb() override {
        acc.setD(static_cast<std::uint16_t>((acc.q() + step_) & 0xFFF));
        if (acc.q() % 3 == 0) flag.setD(flag.q() ^ 1u);
    }
    Reg<std::uint8_t> flag;
    Reg<std::uint16_t> acc;

private:
    std::uint16_t step_;
};

class GoldenTop final : public Module {
public:
    GoldenTop()
        : Module("golden"), wide(*this, "wide", 64, 0x8000000000000001ull),
          odd(*this, "odd", 33, 0x1FFFFFFF0ull), nib(*this, "nib", 3, 5),
          lane0(this, "lane0", 7), lane1(this, "lane1", 0x155) {}
    void evalComb() override {
        wide.setD((wide.q() << 1) | (wide.q() >> 63));
        odd.setD((odd.q() + 0x12345677ull) & 0x1FFFFFFFFull);
    }
    Reg<std::uint64_t> wide;
    Reg<std::uint64_t> odd;
    Reg<std::uint8_t> nib;
    Lane lane0, lane1;
};

std::uint64_t fnv1a(const std::string& text) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(RtlVcd, GoldenWaveformIsByteIdentical) {
    const std::string path = ::testing::TempDir() + "/golden.vcd";
    {
        GoldenTop top;
        VcdWriter vcd{path, top};
        ASSERT_TRUE(vcd.ok());
        std::uint64_t cycle = 0;
        for (; cycle < 10; ++cycle) {
            top.tick();
            vcd.dumpCycle(cycle);
        }
        top.beginCycle();
        top.nib.setD(7);
        top.commitCycle();
        vcd.dumpCycle(cycle++);
        top.nib.setD(2);
        top.nib.latch();
        vcd.dumpCycle(cycle++);
        top.reset();
        vcd.dumpCycle(cycle++);
        for (; cycle < 16; ++cycle) {
            top.tick();
            vcd.dumpCycle(cycle);
        }
    }
    std::ifstream in{path};
    std::stringstream content;
    content << in.rdbuf();
    const std::string text = content.str();
    // Pinned bytes: any kernel or VCD writer change that moves a single
    // character of this waveform fails here.
    EXPECT_EQ(text.size(), 2415u) << text;
    EXPECT_EQ(fnv1a(text), 0xf0d63f9d66c66674ull) << text;
    std::remove(path.c_str());
}

TEST(RtlVcd, DisableStopsOutput) {
    const std::string path = ::testing::TempDir() + "/disabled.vcd";
    Counter c;
    c.enable = true;
    VcdWriter vcd{path, c};
    vcd.dumpCycle(0);
    const auto bytesAfterOne = vcd.bytesWritten();
    vcd.setEnabled(false);
    for (std::uint64_t cycle = 1; cycle < 100; ++cycle) {
        c.tick();
        vcd.dumpCycle(cycle);
    }
    EXPECT_EQ(vcd.bytesWritten(), bytesAfterOne);
    vcd.setEnabled(true);
    c.tick();
    vcd.dumpCycle(100);
    EXPECT_GT(vcd.bytesWritten(), bytesAfterOne);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace g5r::rtl
