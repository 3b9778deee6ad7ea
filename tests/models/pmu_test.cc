// PMU model: counting, enable gating, the 1-cycle capture-delay artefact,
// thresholds/interrupts with the reset-window event-loss artefact, the
// register file, and waveform tracing — all through the C ABI.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "bridge/rtl_model.hh"
#include "models/pmu/pmu_design.hh"
#include "sim/hw_events.hh"

extern "C" const G5rRtlModelApi* g5r_pmu_model_api();

namespace g5r {
namespace {

using models::PmuDesign;

class PmuHarness {
public:
    PmuHarness() : model_(g5r_pmu_model_api(), "") { model_.reset(); }

    /// One tick with the given event pulses; returns the output.
    G5rRtlOutput tick(std::initializer_list<std::pair<unsigned, std::uint32_t>> events = {}) {
        G5rRtlInput in{};
        for (const auto& [line, count] : events) in.events[line] = count;
        G5rRtlOutput out{};
        model_.tick(in, out);
        return out;
    }

    void writeReg(std::uint64_t addr, std::uint64_t data) {
        G5rRtlInput in{};
        in.dev_valid = 1;
        in.dev_write = 1;
        in.dev_addr = addr;
        in.dev_wdata = data;
        G5rRtlOutput out{};
        model_.tick(in, out);
        EXPECT_EQ(out.dev_ready, 1);
    }

    std::uint64_t readReg(std::uint64_t addr) {
        G5rRtlInput in{};
        in.dev_valid = 1;
        in.dev_write = 0;
        in.dev_addr = addr;
        G5rRtlOutput out{};
        model_.tick(in, out);
        EXPECT_EQ(out.dev_ready, 1);
        // Data arrives within the next few ticks (AXI-Lite read handshake).
        G5rRtlInput idle{};
        for (int i = 0; i < 4 && out.dev_resp_valid == 0; ++i) {
            out = G5rRtlOutput{};  // The ABI: the caller zero-fills every tick.
            model_.tick(idle, out);
        }
        EXPECT_EQ(out.dev_resp_valid, 1);
        return out.dev_rdata;
    }

    ApiRtlModel& model() { return model_; }

private:
    ApiRtlModel model_;
};

TEST(PmuModel, IdRegisterIdentifiesTheBlock) {
    PmuHarness pmu;
    EXPECT_EQ(pmu.readReg(PmuDesign::kIdReg), PmuDesign::kIdRegValue);
}

TEST(PmuModel, CountsEnabledEvents) {
    PmuHarness pmu;
    pmu.writeReg(PmuDesign::kEnableReg, 0b0011);  // Counters 0 and 1 only.
    for (int i = 0; i < 10; ++i) pmu.tick({{0, 1}, {1, 2}, {2, 5}});
    pmu.tick();  // Drain the capture stage.
    pmu.tick();
    EXPECT_EQ(pmu.readReg(PmuDesign::kCounterBase + 0), 10u);
    EXPECT_EQ(pmu.readReg(PmuDesign::kCounterBase + 8), 20u);
    EXPECT_EQ(pmu.readReg(PmuDesign::kCounterBase + 16), 0u);  // Disabled.
}

TEST(PmuModel, CaptureStageDelaysCountingByOneCycle) {
    PmuHarness pmu;
    pmu.writeReg(PmuDesign::kEnableReg, 1);
    // Pulse once; immediately after the tick the counter is still 0 because
    // the pulse sits in the capture register (artefact i in the paper).
    pmu.tick({{0, 1}});
    // Probe the internal design state through a read: the read itself takes
    // two more ticks, by which time the pulse has landed.
    EXPECT_EQ(pmu.readReg(PmuDesign::kCounterBase), 1u);
}

TEST(PmuModel, CycleLineIsWiredToTheClock) {
    PmuHarness pmu;
    pmu.writeReg(PmuDesign::kEnableReg, 1u << HwEventBus::kCycle);
    for (int i = 0; i < 50; ++i) pmu.tick();
    const std::uint64_t cycles =
        pmu.readReg(PmuDesign::kCounterBase + 8 * HwEventBus::kCycle);
    // Every tick (including the config/read handshakes) increments it.
    EXPECT_GE(cycles, 50u);
    EXPECT_LE(cycles, 60u);
}

TEST(PmuModel, ThresholdRaisesInterruptAndResetsCounter) {
    PmuHarness pmu;
    pmu.writeReg(PmuDesign::kEnableReg, 1);
    pmu.writeReg(PmuDesign::kThresholdSelReg, 0);
    pmu.writeReg(PmuDesign::kThresholdReg, 5);

    G5rRtlOutput out{};
    int irqAtTick = -1;
    for (int t = 0; t < 20; ++t) {
        out = pmu.tick({{0, 1}});
        if (out.irq != 0 && irqAtTick < 0) irqAtTick = t;
    }
    EXPECT_GE(irqAtTick, 4);  // Roughly at the 5th event (plus capture delay).
    EXPECT_LE(irqAtTick, 7);

    // The counter was reset on the interrupt and lost events during the
    // reset window (artefact ii), so it reads well below 20 - 5.
    const std::uint64_t counter = pmu.readReg(PmuDesign::kCounterBase);
    EXPECT_LT(counter, 20u - 5u);
    // IRQ is level-held until cleared.
    EXPECT_EQ(pmu.tick().irq, 1);
    pmu.writeReg(PmuDesign::kIrqStatusReg, 0);
    EXPECT_EQ(pmu.tick().irq, 0);
}

TEST(PmuModel, ResetWindowLosesExactlyTheWindowEvents) {
    PmuHarness pmu;
    pmu.writeReg(PmuDesign::kEnableReg, 0b10);  // Counter 1 only (no threshold).
    pmu.writeReg(PmuDesign::kThresholdSelReg, 0);
    pmu.writeReg(PmuDesign::kThresholdReg, 3);
    pmu.writeReg(PmuDesign::kEnableReg, 0b11);  // Now enable counter 0 too.

    // Stream simultaneous pulses on lines 0 and 1. Counter 0 trips its
    // threshold and resets; counter 1 keeps counting except during the
    // shared reset window.
    for (int i = 0; i < 40; ++i) pmu.tick({{0, 1}, {1, 1}});
    pmu.tick();
    pmu.tick();
    const std::uint64_t c1 = pmu.readReg(PmuDesign::kCounterBase + 8);
    EXPECT_LT(c1, 40u);  // Some events were lost to reset windows...
    EXPECT_GT(c1, 40u - 8 * (PmuDesign::kResetWindowCycles + 2));  // ...but boundedly.
}

TEST(PmuModel, CounterPresetViaConfigWrite) {
    PmuHarness pmu;
    pmu.writeReg(PmuDesign::kCounterBase + 8 * 3, 1000);
    EXPECT_EQ(pmu.readReg(PmuDesign::kCounterBase + 8 * 3), 1000u);
    pmu.writeReg(PmuDesign::kControlReg, 1);  // Global clear.
    EXPECT_EQ(pmu.readReg(PmuDesign::kCounterBase + 8 * 3), 0u);
}

TEST(PmuModel, MultiplePulsesPerCycleAreAccumulated) {
    // The paper wires four commit-event signals; a burst of 4 commits in a
    // cycle must be countable.
    PmuHarness pmu;
    pmu.writeReg(PmuDesign::kEnableReg, 1);
    for (int i = 0; i < 8; ++i) pmu.tick({{0, 4}});
    pmu.tick();
    pmu.tick();
    EXPECT_EQ(pmu.readReg(PmuDesign::kCounterBase), 32u);
}

TEST(PmuModel, WaveformTracingThroughTheAbi) {
    const std::string path = ::testing::TempDir() + "/pmu.vcd";
    PmuHarness pmu;
    ASSERT_TRUE(pmu.model().traceStart(path));
    pmu.writeReg(PmuDesign::kEnableReg, 1);
    for (int i = 0; i < 10; ++i) pmu.tick({{0, 1}});
    pmu.model().traceStop();

    std::ifstream in{path};
    std::string text{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
    EXPECT_NE(text.find("counter0"), std::string::npos);
    EXPECT_NE(text.find("$enddefinitions"), std::string::npos);
    std::remove(path.c_str());
}

TEST(PmuModel, AbiResetClearsState) {
    PmuHarness pmu;
    pmu.writeReg(PmuDesign::kEnableReg, 1);
    for (int i = 0; i < 5; ++i) pmu.tick({{0, 1}});
    pmu.model().reset();
    pmu.tick();
    EXPECT_EQ(pmu.readReg(PmuDesign::kCounterBase), 0u);
    EXPECT_EQ(pmu.readReg(PmuDesign::kEnableReg), 0u);
}

}  // namespace
}  // namespace g5r
