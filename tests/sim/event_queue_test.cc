// Event-queue semantics: ordering, determinism, (de|re)scheduling, and the
// simulation driver's exit conditions.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "sim/event.hh"
#include "sim/event_queue.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"

namespace g5r {
namespace {

TEST(EventQueue, ProcessesInTickOrder) {
    EventQueue q;
    std::vector<int> order;
    CallbackEvent a{[&] { order.push_back(1); }, "a"};
    CallbackEvent b{[&] { order.push_back(2); }, "b"};
    CallbackEvent c{[&] { order.push_back(3); }, "c"};

    q.schedule(c, 300);
    q.schedule(a, 100);
    q.schedule(b, 200);

    while (!q.empty()) q.serviceOne();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.curTick(), 300u);
    EXPECT_EQ(q.numProcessed(), 3u);
}

TEST(EventQueue, SameTickOrderedByPriorityThenInsertion) {
    EventQueue q;
    std::vector<int> order;
    CallbackEvent later{[&] { order.push_back(3); }, "later", EventPriority::kSimExit};
    CallbackEvent first{[&] { order.push_back(1); }, "first", EventPriority::kStatDump};
    CallbackEvent mid1{[&] { order.push_back(2); }, "mid1"};
    CallbackEvent mid2{[&] { order.push_back(20); }, "mid2"};

    q.schedule(later, 50);
    q.schedule(mid1, 50);
    q.schedule(mid2, 50);
    q.schedule(first, 50);

    while (!q.empty()) q.serviceOne();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 20, 3}));
}

TEST(EventQueue, DescheduleRemovesEvent) {
    EventQueue q;
    int fired = 0;
    CallbackEvent ev{[&] { ++fired; }, "ev"};
    q.schedule(ev, 10);
    EXPECT_TRUE(ev.scheduled());
    q.deschedule(ev);
    EXPECT_FALSE(ev.scheduled());
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, RescheduleMovesEvent) {
    EventQueue q;
    std::vector<Tick> firedAt;
    CallbackEvent marker{[&] { firedAt.push_back(q.curTick()); }, "marker"};
    CallbackEvent other{[] {}, "other"};

    q.schedule(marker, 10);
    q.schedule(other, 5);
    q.reschedule(marker, 42);

    while (!q.empty()) q.serviceOne();
    ASSERT_EQ(firedAt.size(), 1u);
    EXPECT_EQ(firedAt[0], 42u);
}

TEST(EventQueue, EventCanRescheduleItself) {
    EventQueue q;
    int count = 0;
    CallbackEvent* selfPtr = nullptr;
    CallbackEvent self{
        [&] {
            if (++count < 5) q.schedule(*selfPtr, q.curTick() + 7);
        },
        "self"};
    selfPtr = &self;
    q.schedule(self, 0);
    while (!q.empty()) q.serviceOne();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(q.curTick(), 28u);
}

TEST(EventQueue, ManyEventsStressOrdering) {
    EventQueue q;
    Tick last = 0;
    bool monotone = true;
    std::vector<std::unique_ptr<CallbackEvent>> events;
    events.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
        events.push_back(std::make_unique<CallbackEvent>(
            [&] {
                if (q.curTick() < last) monotone = false;
                last = q.curTick();
            },
            "stress"));
    }
    // Pseudo-random ticks with collisions.
    std::uint64_t x = 12345;
    for (auto& ev : events) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        q.schedule(*ev, (x >> 33) % 500);
    }
    while (!q.empty()) q.serviceOne();
    EXPECT_TRUE(monotone);
    EXPECT_EQ(q.numProcessed(), 1000u);
}

TEST(EventQueue, DescheduleFromAnywhereKeepsOrder) {
    // Removal from the middle of the heap must leave the (tick, insertion)
    // order of every remaining event intact.
    EventQueue q;
    std::vector<int> fired;
    std::vector<std::unique_ptr<CallbackEvent>> events;
    for (int i = 0; i < 300; ++i) {
        events.push_back(
            std::make_unique<CallbackEvent>([&fired, i] { fired.push_back(i); }, "ev"));
    }
    std::uint64_t x = 777;
    std::uint64_t order = 0;
    std::map<std::pair<Tick, std::uint64_t>, int> expected;  // (tick, order) -> id.
    std::vector<std::pair<Tick, std::uint64_t>> keyOf(events.size());
    const auto scheduleAt = [&](std::size_t i, bool re) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const Tick when = (x >> 33) % 100;
        if (re) {
            expected.erase(keyOf[i]);
            q.reschedule(*events[i], when);
        } else {
            q.schedule(*events[i], when);
        }
        keyOf[i] = {when, order++};
        expected[keyOf[i]] = static_cast<int>(i);
    };
    for (std::size_t i = 0; i < events.size(); ++i) scheduleAt(i, false);
    for (std::size_t i = 0; i < events.size(); i += 3) {
        q.deschedule(*events[i]);
        expected.erase(keyOf[i]);
    }
    for (std::size_t i = 1; i < events.size(); i += 6) scheduleAt(i, true);
    EXPECT_EQ(q.numPending(), 200u);

    while (!q.empty()) q.serviceOne();
    std::vector<int> want;
    for (const auto& [key, id] : expected) want.push_back(id);
    EXPECT_EQ(fired, want);
}

// A destroyed event must take its heap entry with it, whether it is
// destroyed while scheduled or after a deschedule. The dead event's storage
// is then reused for a fresh event, as an allocator may do: a dangling entry
// would fire the newcomer at the dead event's tick.
TEST(EventQueue, DestroyedEventLeavesNoHeapEntry) {
    for (const bool descheduleFirst : {false, true}) {
        EventQueue q;
        std::vector<std::pair<std::string, Tick>> fired;
        const auto recorder = [&](std::string name) {
            return [&fired, &q, name] { fired.emplace_back(name, q.curTick()); };
        };
        alignas(CallbackEvent) unsigned char storage[sizeof(CallbackEvent)];
        auto* dead = new (storage) CallbackEvent{recorder("dead"), "dead"};
        CallbackEvent other{recorder("other"), "other"};
        q.schedule(*dead, 10);
        q.schedule(other, 20);
        if (descheduleFirst) q.deschedule(*dead);
        dead->~CallbackEvent();
        EXPECT_EQ(q.numPending(), 1u);

        auto* fresh = new (storage) CallbackEvent{recorder("fresh"), "fresh"};
        q.schedule(*fresh, 30);
        EXPECT_EQ(q.nextTick(), 20u);
        while (!q.empty()) q.serviceOne();
        fresh->~CallbackEvent();

        using Fired = std::vector<std::pair<std::string, Tick>>;
        EXPECT_EQ(fired, (Fired{{"other", 20}, {"fresh", 30}}))
            << "descheduleFirst=" << descheduleFirst;
    }
}

// Keyed events rank by their order key at one (tick, priority), however
// late or often each was (re)scheduled: a keyed tick that stopped and was
// rescheduled late takes the slot it had, not one after its peers.
TEST(EventQueue, OrderKeyRanksSamePriorityEventsRegardlessOfScheduleOrder) {
    EventQueue q;
    std::vector<int> order;
    CallbackEvent a{[&] { order.push_back(0); }, "a", EventPriority::kRtlTick};
    CallbackEvent b{[&] { order.push_back(1); }, "b", EventPriority::kRtlTick};
    CallbackEvent c{[&] { order.push_back(2); }, "c", EventPriority::kRtlTick};
    a.setOrderKey(0);
    b.setOrderKey(1);
    c.setOrderKey(2);
    q.schedule(c, 100);
    q.schedule(b, 100);
    q.schedule(a, 100);
    while (!q.empty()) q.serviceOne();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));

    order.clear();
    q.schedule(b, 200);
    q.schedule(c, 300);
    q.schedule(a, 300);
    q.reschedule(b, 300);  // b is scheduled last at 300, yet runs between a and c.
    while (!q.empty()) q.serviceOne();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// hasPassed() places a hypothetical keyed event among its same-priority
// peers: it has passed once an event of a higher key ran at that tick, and
// not before.
TEST(EventQueue, HasPassedComparesOrderKeysWithinAPriority) {
    EventQueue q;
    const int rtl = static_cast<int>(EventPriority::kRtlTick);
    std::vector<std::pair<bool, bool>> seen;  // (key 1 passed, key 3 passed) at b.
    CallbackEvent a{[] {}, "a", EventPriority::kRtlTick};
    CallbackEvent b{[&] { seen.emplace_back(q.hasPassed(100, rtl, 1), q.hasPassed(100, rtl, 3)); },
                    "b", EventPriority::kRtlTick};
    a.setOrderKey(0);
    b.setOrderKey(2);
    q.schedule(a, 100);
    q.schedule(b, 100);
    EXPECT_FALSE(q.hasPassed(100, rtl, 0));
    q.serviceOne();
    EXPECT_TRUE(q.hasPassed(100, rtl, 0));
    EXPECT_FALSE(q.hasPassed(100, rtl, 1));
    EXPECT_FALSE(q.hasPassed(100, rtl + 1, 0));
    EXPECT_TRUE(q.hasPassed(100, rtl - 1, 99));
    q.serviceOne();
    EXPECT_EQ(seen, (std::vector<std::pair<bool, bool>>{{true, false}}));
    EXPECT_TRUE(q.hasPassed(99, rtl + 50, 0));
    q.advanceTo(100);
    EXPECT_TRUE(q.hasPassed(100, static_cast<int>(EventPriority::kSimExit), 7));
}

TEST(Simulation, RunsUntilQueueEmpty) {
    Simulation sim;
    int fired = 0;
    CallbackEvent ev{[&] { ++fired; }, "ev"};
    sim.eventQueue().schedule(ev, 1000);
    const RunResult result = sim.run();
    EXPECT_EQ(result.cause, ExitCause::kQueueEmpty);
    EXPECT_EQ(fired, 1);
}

TEST(Simulation, HonorsMaxTick) {
    Simulation sim;
    int fired = 0;
    CallbackEvent ev{[&] { ++fired; }, "ev"};
    sim.eventQueue().schedule(ev, 1000);
    const RunResult result = sim.run(500);
    EXPECT_EQ(result.cause, ExitCause::kMaxTickReached);
    EXPECT_EQ(fired, 0);
    // The event is still pending and fires on a later run.
    sim.run();
    EXPECT_EQ(fired, 1);
}

TEST(Simulation, ExitSimLoopStopsImmediately) {
    Simulation sim;
    int fired = 0;
    CallbackEvent stop{[&] { sim.exitSimLoop("done"); }, "stop"};
    CallbackEvent after{[&] { ++fired; }, "after"};
    sim.eventQueue().schedule(stop, 10);
    sim.eventQueue().schedule(after, 20);
    const RunResult result = sim.run();
    EXPECT_EQ(result.cause, ExitCause::kSimExit);
    EXPECT_EQ(result.message, "done");
    EXPECT_EQ(result.tick, 10u);
    EXPECT_EQ(fired, 0);
}

class CountingObject final : public SimObject {
public:
    using SimObject::SimObject;
    void init() override { ++inits; }
    void startup() override { ++startups; }
    int inits = 0;
    int startups = 0;
};

TEST(Simulation, LifecycleHooksRunExactlyOnce) {
    Simulation sim;
    CountingObject obj{sim, "obj"};
    CallbackEvent ev{[] {}, "noop"};
    sim.eventQueue().schedule(ev, 1);
    sim.run();
    sim.run();
    EXPECT_EQ(obj.inits, 1);
    EXPECT_EQ(obj.startups, 1);
}

}  // namespace
}  // namespace g5r
