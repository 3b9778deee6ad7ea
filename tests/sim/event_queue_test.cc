// Event-queue semantics: ordering, determinism, (de|re)scheduling, and the
// simulation driver's exit conditions.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <tuple>
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

// Differential check of the heap against a brute-force reference: a sorted
// std::set of (when, priority, rank, slot). Seeded random streams schedule,
// deschedule, reschedule, destroy and advance; handlers schedule more work
// at their own tick and touch other events. Every dispatch must be the
// reference's minimum, and hasPassed() must agree with a reference that
// keeps the largest (priority, rank) dispatched at the current tick.
class RefQueueDriver {
public:
    explicit RefQueueDriver(std::uint64_t seed) : rng_(seed) {
        for (std::size_t s = 0; s < kSlots; ++s) recreate(s);
    }

    void run(int steps) {
        for (int i = 0; i < steps && !::testing::Test::HasFailure(); ++i) {
            const unsigned r = pick(100);
            if (r < 35) {
                scheduleIdle(randomDelay());
            } else if (r < 42) {
                descheduleAny();
            } else if (r < 50) {
                rescheduleAny(randomDelay());
            } else if (r < 55) {
                destroyAny(kNone);
            } else if (r < 58) {
                advance();
            } else {
                dispatch();
            }
            checkAgreement();
        }
        while (!q_.empty() && !::testing::Test::HasFailure()) dispatch();
        EXPECT_TRUE(ref_.empty());
        EXPECT_GT(dispatched_, 0u);
    }

private:
    static constexpr std::size_t kSlots = 24;
    static constexpr std::size_t kNone = kSlots;
    using Key = std::tuple<Tick, int, std::uint64_t, std::size_t>;

    unsigned pick(unsigned n) { return static_cast<unsigned>(rng_() % n); }

    Tick randomDelay() {
        const unsigned r = pick(100);
        if (r < 30) return 0;
        if (r < 60) return 1000 * pick(3);
        if (r < 90) return pick(5000);
        return 5000 + pick(100'000);
    }

    void recreate(std::size_t s) {
        static constexpr EventPriority kUnkeyed[] = {
            EventPriority::kStatDump, EventPriority::kClockTick,
            EventPriority::kResponse, EventPriority::kSimExit};
        const bool keyed = pick(4) == 0;
        const EventPriority prio = keyed ? EventPriority::kRtlTick : kUnkeyed[pick(4)];
        events_[s] = std::make_unique<CallbackEvent>([this, s] { fired(s); },
                                                     "slot" + std::to_string(s), prio);
        // Keys are distinct (and never kNoOrderKey): equal keys at one
        // (tick, priority) would leave the order to the heap.
        if (keyed) events_[s]->setOrderKey((rng_() >> 8) * kSlots + s);
        refOf_[s].reset();
    }

    std::optional<std::size_t> randomSlot(bool scheduled, std::size_t except) {
        const std::size_t start = pick(kSlots);
        for (std::size_t i = 0; i < kSlots; ++i) {
            const std::size_t s = (start + i) % kSlots;
            if (s != except && refOf_[s].has_value() == scheduled) return s;
        }
        return std::nullopt;
    }

    // Schedule slot @p s at @p when (through reschedule() if @p viaReschedule)
    // and enter it in the reference.
    void add(std::size_t s, Tick when, bool viaReschedule = false) {
        Event& ev = *events_[s];
        if (viaReschedule) {
            q_.reschedule(ev, when);
        } else {
            q_.schedule(ev, when);
        }
        const std::uint64_t rank =
            ev.orderKey() != Event::kNoOrderKey ? ev.orderKey() : sequence_++;
        refOf_[s] = Key{when, ev.priority(), rank, s};
        ref_.insert(*refOf_[s]);
    }

    void remove(std::size_t s) {
        ref_.erase(*refOf_[s]);
        refOf_[s].reset();
    }

    void scheduleIdle(Tick delay, std::size_t except = kNone) {
        if (const auto s = randomSlot(false, except)) add(*s, q_.curTick() + delay);
    }

    void descheduleAny(std::size_t except = kNone) {
        if (const auto s = randomSlot(true, except)) {
            q_.deschedule(*events_[*s]);
            remove(*s);
        }
    }

    void rescheduleAny(Tick delay, std::size_t except = kNone) {
        const auto s = randomSlot(pick(2) == 0, except);
        if (!s) return;
        if (refOf_[*s]) remove(*s);
        add(*s, q_.curTick() + delay, true);
    }

    // Destroying a scheduled event must drop its entry; the slot gets a
    // fresh event (maybe keyed, maybe at the dead one's address).
    void destroyAny(std::size_t except) {
        std::size_t s = pick(kSlots);
        if (s == except) return;
        if (refOf_[s]) remove(s);
        events_[s].reset();
        recreate(s);
    }

    void advance() {
        Tick to = q_.curTick();
        if (q_.empty()) {
            to += pick(3000);
        } else if (const Tick next = q_.nextTick(); next > to) {
            to += pick(static_cast<unsigned>(std::min<Tick>(next - to, 3000)));
        }
        if (pick(8) == 0 && q_.curTick() > 0) {
            q_.advanceTo(q_.curTick() - 1);  // The past: a no-op.
            return;
        }
        q_.advanceTo(to);
        curTick_ = to;
        allPassed_ = true;
        maxPassed_.reset();
    }

    void dispatch() {
        if (ref_.empty()) {
            EXPECT_TRUE(q_.empty());
            return;
        }
        expected_ = *ref_.begin();
        remove(std::get<3>(expected_));
        const auto [when, prio, rank, slot] = expected_;
        if (when > curTick_) {
            curTick_ = when;
            allPassed_ = false;
            maxPassed_.reset();
        }
        if (!allPassed_ && (!maxPassed_ || std::pair{prio, rank} > *maxPassed_)) {
            maxPassed_ = std::pair{prio, rank};
        }
        const std::uint64_t before = q_.numProcessed();
        firedSlot_ = kNone;
        q_.serviceOne();
        EXPECT_EQ(q_.numProcessed(), before + 1);
        EXPECT_EQ(firedSlot_, slot) << "dispatch " << dispatched_;
        ++dispatched_;
        checkHasPassed();
    }

    void fired(std::size_t s) {
        firedSlot_ = s;
        EXPECT_EQ(q_.curTick(), std::get<0>(expected_));
        EXPECT_FALSE(events_[s]->scheduled());
        checkHasPassed();
        // Handler work: same-tick follow-ups and edits to other events.
        for (unsigned n = pick(3); n > 0; --n) {
            switch (pick(5)) {
                case 0: scheduleIdle(0, s); break;
                case 1: scheduleIdle(randomDelay(), s); break;
                case 2: descheduleAny(s); break;
                case 3: rescheduleAny(pick(2) == 0 ? 0 : randomDelay(), s); break;
                default: destroyAny(s); break;
            }
        }
        if (pick(6) == 0) add(s, q_.curTick() + randomDelay());  // Reschedule itself.
    }

    bool refHasPassed(Tick when, int prio, std::uint64_t rank) const {
        if (when != curTick_) return when < curTick_;
        return allPassed_ || (maxPassed_ && std::pair{prio, rank} <= *maxPassed_);
    }

    void checkHasPassed() {
        const std::uint64_t last = std::get<2>(expected_);
        for (const Tick when : {curTick_ == 0 ? 0 : curTick_ - 1, curTick_, curTick_ + 1}) {
            for (const int prio : {-100, -1, 0, 10, 20, 21, 100}) {
                for (const std::uint64_t rank :
                     {std::uint64_t{0}, last == 0 ? 0 : last - 1, last, last + 1,
                      Event::kNoOrderKey - 1}) {
                    ASSERT_EQ(q_.hasPassed(when, prio, rank), refHasPassed(when, prio, rank))
                        << "hasPassed(" << when << ", " << prio << ", " << rank
                        << ") at tick " << curTick_;
                }
            }
        }
    }

    void checkAgreement() {
        ASSERT_EQ(q_.curTick(), curTick_);
        ASSERT_EQ(q_.numPending(), ref_.size());
        if (!ref_.empty()) {
            ASSERT_EQ(q_.nextTick(), std::get<0>(*ref_.begin()));
        }
        for (std::size_t s = 0; s < kSlots; ++s) {
            ASSERT_EQ(events_[s]->scheduled(), refOf_[s].has_value()) << "slot " << s;
            if (refOf_[s]) {
                ASSERT_EQ(events_[s]->when(), std::get<0>(*refOf_[s]));
            }
        }
    }

    std::mt19937_64 rng_;
    EventQueue q_;
    std::unique_ptr<CallbackEvent> events_[kSlots];
    std::optional<Key> refOf_[kSlots];
    std::set<Key> ref_;
    std::uint64_t sequence_ = 0;
    Tick curTick_ = 0;
    bool allPassed_ = false;
    std::optional<std::pair<int, std::uint64_t>> maxPassed_;
    Key expected_{};
    std::size_t firedSlot_ = kNone;
    std::uint64_t dispatched_ = 0;
};

TEST(EventQueue, MatchesReferenceOrderOnRandomOps) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        RefQueueDriver{seed}.run(2000);
        if (HasFailure()) break;
    }
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
