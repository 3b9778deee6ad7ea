// Odds and ends: deterministic RNG, strict decimal parsing, stats dumping
// from a whole simulation, the hardware event bus, and kernel invariant
// enforcement (death tests).
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "sim/event_queue.hh"
#include "sim/hw_events.hh"
#include "sim/parse.hh"
#include "sim/rng.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"

namespace g5r {
namespace {

TEST(Rng, DeterministicAndWellSpread) {
    Rng a{42}, b{42}, c{43};
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
    // Different seeds diverge immediately.
    Rng a2{42};
    EXPECT_NE(a2.next(), c.next());

    // below() respects its bound; uniform() stays in [0,1).
    Rng r{7};
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(r.below(17), 17u);
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        const auto v = r.range(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
    }
}

TEST(ParseDecimal, AcceptsOnlyWholeDigitStringsInRange) {
    EXPECT_EQ(parseDecimal("0"), 0u);
    EXPECT_EQ(parseDecimal("64"), 64u);
    EXPECT_EQ(parseDecimal("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(parseDecimal("4294967295", ~0u), 4294967295u);
    for (const char* bad : {"", "8x", "x8", "-1", "+1", " 1", "1 ", "0x10",
                            "18446744073709551616"}) {
        EXPECT_FALSE(parseDecimal(bad)) << '"' << bad << '"';
    }
    EXPECT_FALSE(parseDecimal("4294967296", ~0u));  // Does not fit unsigned.
}

TEST(HwEventBus, AccumulatesAndDrains) {
    HwEventBus bus;
    bus.pulse(HwEventBus::kCommit0);
    bus.pulse(HwEventBus::kCommit0, 3);
    bus.pulse(HwEventBus::kL1dMiss);
    bus.pulse(99);  // Out of range: ignored.
    EXPECT_EQ(bus.peek()[HwEventBus::kCommit0], 4u);
    const auto drained = bus.drain();
    EXPECT_EQ(drained[HwEventBus::kCommit0], 4u);
    EXPECT_EQ(drained[HwEventBus::kL1dMiss], 1u);
    EXPECT_EQ(bus.peek()[HwEventBus::kCommit0], 0u);
}

TEST(HwEventBus, PulseSaturatesInsteadOfWrapping) {
    // Regression: the count used to wrap at 2^32, so a consumer that drains
    // rarely (e.g. while quiescence-gated) could under-read its total.
    HwEventBus bus;
    const auto max = std::numeric_limits<std::uint32_t>::max();
    bus.pulse(HwEventBus::kCommit0, max - 2);
    bus.pulse(HwEventBus::kCommit0, 5);  // Would wrap to 2.
    EXPECT_EQ(bus.peek()[HwEventBus::kCommit0], max);
    bus.pulse(HwEventBus::kCommit0);     // Already saturated: stays put.
    EXPECT_EQ(bus.peek()[HwEventBus::kCommit0], max);
    EXPECT_EQ(bus.drain()[HwEventBus::kCommit0], max);
    EXPECT_EQ(bus.peek()[HwEventBus::kCommit0], 0u);
}

TEST(HwEventBus, WakeCallbackFiresOnEmptyToNonEmptyOnly) {
    HwEventBus bus;
    int wakes = 0;
    bus.addWakeCallback([&] { ++wakes; });
    EXPECT_FALSE(bus.hasPending());
    bus.pulse(HwEventBus::kCommit0);
    EXPECT_EQ(wakes, 1);
    EXPECT_TRUE(bus.hasPending());
    bus.pulse(HwEventBus::kCommit0);     // Still pending: no second wake.
    bus.pulse(HwEventBus::kL1dMiss);
    EXPECT_EQ(wakes, 1);
    bus.drain();
    EXPECT_FALSE(bus.hasPending());
    bus.pulse(HwEventBus::kCycle);       // Fresh transition: wakes again.
    EXPECT_EQ(wakes, 2);
    bus.pulse(HwEventBus::kCycle, 0);    // Zero pulses never wake.
    bus.drain();
    bus.pulse(HwEventBus::kCycle, 0);
    EXPECT_EQ(wakes, 2);
}

TEST(Simulation, DumpStatsListsEveryObject) {
    Simulation sim;
    SimObject a{sim, "sys.alpha"};
    SimObject b{sim, "sys.beta"};
    a.statsGroup().scalar("x", "an x") += 5;
    b.statsGroup().scalar("y", "a y") += 7;
    std::ostringstream os;
    sim.dumpStats(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("sys.alpha.x"), std::string::npos);
    EXPECT_NE(out.find("sys.beta.y"), std::string::npos);
}

using EventQueueDeath = ::testing::Test;

TEST(EventQueueDeath, SchedulingIntoThePastPanics) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto scheduleIntoPast = [] {
        EventQueue q;
        CallbackEvent later{[] {}, "later"};
        CallbackEvent now{[&] { q.schedule(later, 5); }, "now"};
        q.schedule(now, 100);
        q.serviceOne();
    };
    EXPECT_DEATH(scheduleIntoPast(), "into the past");
}

TEST(EventQueueDeath, DoubleSchedulePanics) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto doubleSchedule = [] {
        EventQueue q;
        CallbackEvent ev{[] {}, "ev"};
        q.schedule(ev, 10);
        q.schedule(ev, 20);
    };
    EXPECT_DEATH(doubleSchedule(), "already-scheduled");
}

TEST(EventQueueDeath, DescheduleIdleEventPanics) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto descheduleIdle = [] {
        EventQueue q;
        CallbackEvent ev{[] {}, "ev"};
        q.deschedule(ev);
    };
    EXPECT_DEATH(descheduleIdle(), "idle event");
}

}  // namespace
}  // namespace g5r
