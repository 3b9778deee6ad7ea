// Trigger-windowed waveform capture: spec parsing, window boundary math
// (partial and full pre-trigger rings, exact post counts, zero windows),
// condition semantics, and the no-file-when-unfired guarantee.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trigger.hh"

namespace g5r::obs {
namespace {

std::string tempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
}

bool fileExists(const std::string& path) {
    return std::ifstream{path}.good();
}

// Timestamps dumped into a VCD, in order (the "#<cycle>" lines).
std::vector<std::uint64_t> vcdTimestamps(const std::string& path) {
    std::vector<std::uint64_t> out;
    std::ifstream in{path};
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] == '#') out.push_back(std::stoull(line.substr(1)));
    }
    return out;
}

// A two-signal test design: "top.counter" increments every cycle (so every
// dumped cycle has a change and therefore a timestamp), "top.flag" is the
// watched signal.
struct Design {
    std::uint64_t counter = 0;
    std::uint64_t flag = 0;

    std::vector<rtl::VcdSignal> signals() {
        return {rtl::VcdSignal{"top", "counter", 16, [this] { return counter; }},
                rtl::VcdSignal{"top", "flag", 1, [this] { return flag; }}};
    }
};

TEST(TriggerSpec, ParsesAllThreeKinds) {
    std::string error;
    auto eq = TriggerSpec::parse("flag==1", &error);
    ASSERT_TRUE(eq.has_value()) << error;
    EXPECT_EQ(eq->signal, "flag");
    EXPECT_EQ(eq->kind, TriggerSpec::Kind::kValueEquals);
    EXPECT_EQ(eq->value, 1u);
    EXPECT_EQ(eq->preTriggerCycles, 16u);  // Defaults.
    EXPECT_EQ(eq->postTriggerCycles, 64u);

    auto hexWindow = TriggerSpec::parse("top.counter==0x1f@8,32", &error);
    ASSERT_TRUE(hexWindow.has_value()) << error;
    EXPECT_EQ(hexWindow->signal, "top.counter");
    EXPECT_EQ(hexWindow->value, 0x1fu);
    EXPECT_EQ(hexWindow->preTriggerCycles, 8u);
    EXPECT_EQ(hexWindow->postTriggerCycles, 32u);

    auto change = TriggerSpec::parse("flag:change@0,0", &error);
    ASSERT_TRUE(change.has_value()) << error;
    EXPECT_EQ(change->kind, TriggerSpec::Kind::kAnyChange);
    EXPECT_EQ(change->preTriggerCycles, 0u);
    EXPECT_EQ(change->postTriggerCycles, 0u);

    auto rise = TriggerSpec::parse("irq:rise", &error);
    ASSERT_TRUE(rise.has_value()) << error;
    EXPECT_EQ(rise->kind, TriggerSpec::Kind::kRisingEdge);
    EXPECT_EQ(rise->signal, "irq");
}

TEST(TriggerSpec, RejectsMalformedSpecs) {
    for (const char* bad : {"", "flag", "flag==", "==5", "flag:bogus", "flag==5@8",
                            "flag==notanumber", ":rise"}) {
        SCOPED_TRACE(bad);
        std::string error;
        EXPECT_FALSE(TriggerSpec::parse(bad, &error).has_value());
        EXPECT_FALSE(error.empty());
    }
}

TEST(TriggerCapture, UnknownSignalIsReportedNotThrownThroughFactory) {
    Design d;
    std::string error;
    auto capture = TriggerCapture::fromSpecString("nosuch==1", tempPath("trig_unknown.vcd"),
                                                  d.signals(), 1000, &error);
    EXPECT_EQ(capture, nullptr);
    EXPECT_NE(error.find("nosuch"), std::string::npos);
}

TEST(TriggerCapture, NeverFiredTriggerWritesNoFile) {
    Design d;
    const std::string path = tempPath("trig_unfired.vcd");
    std::string error;
    auto capture = TriggerCapture::fromSpecString("flag==1@4,4", path, d.signals(),
                                                  1000, &error);
    ASSERT_NE(capture, nullptr) << error;
    for (std::uint64_t c = 0; c < 100; ++c) {
        d.counter = c;
        capture->cycle(c);
    }
    EXPECT_FALSE(capture->fired());
    EXPECT_FALSE(capture->done());
    EXPECT_TRUE(capture->active());  // Still armed: gating must not idle it off.
    EXPECT_FALSE(fileExists(path));
}

TEST(TriggerCapture, FullPreRingPlusFireAndPostWindow) {
    Design d;
    const std::string path = tempPath("trig_window.vcd");
    auto capture = TriggerCapture::fromSpecString("flag==1@4,3", path, d.signals());
    ASSERT_NE(capture, nullptr);
    for (std::uint64_t c = 0; c < 20; ++c) {
        d.counter = c;
        d.flag = c == 10 ? 1 : 0;
        capture->cycle(c);
        if (c == 9) {
            EXPECT_FALSE(capture->fired());
        }
    }
    EXPECT_TRUE(capture->fired());
    EXPECT_EQ(capture->firedCycle(), 10u);
    EXPECT_TRUE(capture->done());
    EXPECT_FALSE(capture->active());

    // Window = 4 pre (cycles 6..9) + the firing cycle + 3 post (11..13).
    const auto stamps = vcdTimestamps(path);
    const std::vector<std::uint64_t> expected{6, 7, 8, 9, 10, 11, 12, 13};
    EXPECT_EQ(stamps, expected);
    std::remove(path.c_str());
}

TEST(TriggerCapture, PartialPreRingWhenFiringEarly) {
    Design d;
    const std::string path = tempPath("trig_partial.vcd");
    auto capture = TriggerCapture::fromSpecString("flag==1@10,2", path, d.signals());
    ASSERT_NE(capture, nullptr);
    // Fires at cycle 2: only cycles 0 and 1 exist as pre-trigger history.
    for (std::uint64_t c = 0; c < 10; ++c) {
        d.counter = c;
        d.flag = c == 2 ? 1 : 0;
        capture->cycle(c);
    }
    const auto stamps = vcdTimestamps(path);
    const std::vector<std::uint64_t> expected{0, 1, 2, 3, 4};
    EXPECT_EQ(stamps, expected);
    std::remove(path.c_str());
}

TEST(TriggerCapture, ZeroPostWindowClosesOnTheFiringCycle) {
    Design d;
    const std::string path = tempPath("trig_zeropost.vcd");
    auto capture = TriggerCapture::fromSpecString("flag==1@2,0", path, d.signals());
    ASSERT_NE(capture, nullptr);
    for (std::uint64_t c = 0; c < 8; ++c) {
        d.counter = c;
        d.flag = c == 5 ? 1 : 0;
        capture->cycle(c);
        if (c == 5) {
            EXPECT_TRUE(capture->done());  // Closed immediately.
        }
    }
    const auto stamps = vcdTimestamps(path);
    const std::vector<std::uint64_t> expected{3, 4, 5};
    EXPECT_EQ(stamps, expected);
    std::remove(path.c_str());
}

TEST(TriggerCapture, RisingEdgeNeedsAZeroBeforeTheOne) {
    // Signal held high from cycle 0: no 0 -> 1 transition, never fires.
    {
        Design d;
        d.flag = 1;
        const std::string path = tempPath("trig_rise_high.vcd");
        auto capture = TriggerCapture::fromSpecString("flag:rise@2,2", path, d.signals());
        ASSERT_NE(capture, nullptr);
        for (std::uint64_t c = 0; c < 10; ++c) {
            d.counter = c;
            capture->cycle(c);
        }
        EXPECT_FALSE(capture->fired());
        EXPECT_FALSE(fileExists(path));
    }
    // A genuine edge fires on the first non-zero cycle.
    {
        Design d;
        const std::string path = tempPath("trig_rise_edge.vcd");
        auto capture = TriggerCapture::fromSpecString("flag:rise@2,2", path, d.signals());
        ASSERT_NE(capture, nullptr);
        for (std::uint64_t c = 0; c < 10; ++c) {
            d.counter = c;
            d.flag = c >= 6 ? 1 : 0;
            capture->cycle(c);
        }
        EXPECT_TRUE(capture->fired());
        EXPECT_EQ(capture->firedCycle(), 6u);
        std::remove(path.c_str());
    }
}

TEST(TriggerCapture, AnyChangeFiresOnValueChangeNotOnFirstSample) {
    Design d;
    d.counter = 7;
    const std::string path = tempPath("trig_change.vcd");
    // Watch the counter itself; hold it steady, then change it once.
    auto capture = TriggerCapture::fromSpecString("top.counter:change@1,1", path,
                                                  d.signals());
    ASSERT_NE(capture, nullptr);
    for (std::uint64_t c = 0; c < 4; ++c) capture->cycle(c);  // Steady: no fire.
    EXPECT_FALSE(capture->fired());
    d.counter = 8;
    capture->cycle(4);
    EXPECT_TRUE(capture->fired());
    EXPECT_EQ(capture->firedCycle(), 4u);
    capture->cycle(5);
    EXPECT_TRUE(capture->done());
    std::remove(path.c_str());
}

}  // namespace
}  // namespace g5r::obs
