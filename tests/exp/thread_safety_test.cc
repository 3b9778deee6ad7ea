// Dedicated regression tests for the thread-safety audit fixes that made
// concurrent Simulations legal: per-run packet IDs, the nextTick()
// const_cast removal, interleave-free tagged logging, and the process-wide
// NVDLA trace cache that concurrent sweep points share.
#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <latch>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "mem/packet.hh"
#include "models/nvdla/trace.hh"
#include "sim/event.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/packet_id.hh"
#include "sim/simulation.hh"

namespace g5r {
namespace {

// ---- Packet::nextId(): per-Simulation, race-free --------------------------

std::vector<std::uint64_t> packetIdStream(Simulation& sim, int packetsPerEvent) {
    std::vector<std::uint64_t> ids;
    CallbackEvent mint{[&ids, packetsPerEvent] {
        for (int i = 0; i < packetsPerEvent; ++i) {
            ids.push_back(makeReadPacket(0x100, 64)->id());
        }
    }, "mint"};
    for (Tick t = 10; t <= 100; t += 10) {
        sim.eventQueue().schedule(mint, t);
        sim.run();
    }
    return ids;
}

TEST(PacketIdRegression, EachSimulationGetsItsOwnDeterministicStream) {
    // Two interleaved simulations in one thread: under the old process-global
    // counter the second stream continued where the first left off.
    Simulation simA;
    Simulation simB;
    const auto idsA = packetIdStream(simA, 2);
    const auto idsB = packetIdStream(simB, 3);

    ASSERT_EQ(idsA.size(), 20u);
    ASSERT_EQ(idsB.size(), 30u);
    for (std::size_t i = 0; i < idsA.size(); ++i) EXPECT_EQ(idsA[i], i + 1);
    for (std::size_t i = 0; i < idsB.size(); ++i) EXPECT_EQ(idsB[i], i + 1);
}

TEST(PacketIdRegression, ConcurrentRunsMatchSequentialRuns) {
    // The sequential reference...
    std::vector<std::uint64_t> seqA, seqB;
    {
        Simulation simA;
        seqA = packetIdStream(simA, 2);
        Simulation simB;
        seqB = packetIdStream(simB, 3);
    }
    // ...must be reproduced exactly when the two runs race on two threads
    // (and TSan must see no data race on the counters).
    std::vector<std::uint64_t> parA, parB;
    {
        std::jthread threadA{[&parA] {
            Simulation sim;
            parA = packetIdStream(sim, 2);
        }};
        std::jthread threadB{[&parB] {
            Simulation sim;
            parB = packetIdStream(sim, 3);
        }};
    }
    EXPECT_EQ(parA, seqA);
    EXPECT_EQ(parB, seqB);
}

TEST(PacketIdRegression, ScopesNestAndRestore) {
    std::uint64_t outer = 0;
    const PacketIdScope outerScope{outer};
    EXPECT_EQ(nextPacketId(), 1u);
    {
        std::uint64_t inner = 100;
        const PacketIdScope innerScope{inner};
        EXPECT_EQ(nextPacketId(), 101u);
    }
    EXPECT_EQ(nextPacketId(), 2u);  // Outer counter resumed, not clobbered.
}

TEST(PacketIdRegression, FallbackWithoutScopeStillProducesUniqueIds) {
    // Packets minted outside any Simulation::run() draw from the atomic
    // process-global counter: concurrently minted IDs never collide.
    std::vector<std::vector<std::uint64_t>> perThread(4);
    {
        std::vector<std::jthread> threads;
        for (auto& ids : perThread) {
            threads.emplace_back([&ids] {
                for (int i = 0; i < 250; ++i) ids.push_back(makeReadPacket(0, 8)->id());
            });
        }
    }
    std::set<std::uint64_t> all;
    for (const auto& ids : perThread) all.insert(ids.begin(), ids.end());
    EXPECT_EQ(all.size(), 1000u);
}

// ---- EventQueue::nextTick(): no const_cast mutation -----------------------

template <typename Q>
concept HasConstNextTick = requires(const Q& queue) { queue.nextTick(); };

TEST(NextTickRegression, NextTickIsNotCallableOnConstQueues) {
    // nextTick() compacts the heap (pops stale entries), so it must not be
    // callable through a const EventQueue — the old implementation hid the
    // mutation behind a const_cast (UB on a genuinely const object).
    static_assert(!HasConstNextTick<EventQueue>, "nextTick() must be non-const");
    SUCCEED();
}

TEST(NextTickRegression, NextTickSkipsStaleEntries) {
    EventQueue queue;
    int fired = 0;
    CallbackEvent early{[&fired] { ++fired; }, "early"};
    CallbackEvent late{[&fired] { ++fired; }, "late"};
    queue.schedule(early, 10);
    queue.schedule(late, 20);
    queue.deschedule(early);  // Leaves a stale heap entry at tick 10.
    EXPECT_EQ(queue.nextTick(), 20u);
    queue.serviceOne();
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(queue.empty());
}

// ---- logging: single-write lines, run labels ------------------------------

/// Redirect std::cerr into a buffer for the object's lifetime.
class CerrCapture {
public:
    CerrCapture() : old_(std::cerr.rdbuf(buffer_.rdbuf())) {}
    ~CerrCapture() { std::cerr.rdbuf(old_); }
    std::string text() const { return buffer_.str(); }

private:
    std::ostringstream buffer_;
    std::streambuf* old_;
};

TEST(LoggingRegression, ConcurrentDebugPrintsNeverTearLines) {
    CerrCapture capture;
    constexpr int kThreads = 8;
    constexpr int kLines = 50;
    {
        std::vector<std::jthread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([t] {
                const RunLabelScope label{"run" + std::to_string(t)};
                for (int i = 0; i < kLines; ++i) {
                    debugPrint("flag", "thread " + std::to_string(t) + " line " +
                                           std::to_string(i));
                }
            });
        }
    }
    std::istringstream lines{capture.text()};
    int total = 0;
    std::string line;
    while (std::getline(lines, line)) {
        ++total;
        // Every captured line is exactly one whole message, tagged with the
        // emitting run's label: "[runT] [flag] thread T line I".
        ASSERT_TRUE(line.starts_with("[run")) << "torn line: " << line;
        const std::string thread = line.substr(4, line.find(']') - 4);
        EXPECT_EQ(line, "[run" + thread + "] [flag] thread " + thread + " line " +
                            line.substr(line.rfind(' ') + 1))
            << "torn line: " << line;
    }
    EXPECT_EQ(total, kThreads * kLines);
}

TEST(LoggingRegression, DebugPrintWithoutLabelKeepsHistoricalFormat) {
    CerrCapture capture;
    debugPrint("cache", "hit @0x40");
    EXPECT_EQ(capture.text(), "[cache] hit @0x40\n");
}

TEST(LoggingRegression, PanicMessageIsOneTaggedString) {
    const auto loc = std::source_location::current();
    {
        const RunLabelScope label{"sweep/p3"};
        const std::string msg = formatPanicMessage("invariant violated", loc);
        EXPECT_TRUE(msg.starts_with("[sweep/p3] panic: invariant violated\n  at "));
        EXPECT_TRUE(msg.ends_with(")\n"));
        EXPECT_NE(msg.find(loc.file_name()), std::string::npos);
    }
    // Untagged outside the scope: the historical format.
    EXPECT_TRUE(formatPanicMessage("boom", loc).starts_with("panic: boom\n  at "));
}

TEST(LoggingRegression, RunLabelScopesNestAndRestore) {
    EXPECT_EQ(logRunLabel(), "");
    {
        const RunLabelScope outer{"outer"};
        EXPECT_EQ(logRunLabel(), "outer");
        {
            const RunLabelScope inner{"inner"};
            EXPECT_EQ(logRunLabel(), "inner");
        }
        EXPECT_EQ(logRunLabel(), "outer");
    }
    EXPECT_EQ(logRunLabel(), "");
}

// ---- models::sharedConvTrace(): one trace per key, whichever thread asks --

TEST(TraceCacheRegression, ConcurrentRequestsYieldOneTracePerKey) {
    // Names no other test uses, so every key is built inside the race.
    constexpr int kThreads = 4;
    constexpr int kKeys = 3;
    constexpr int kRounds = 4;
    models::NvdlaShape shape;
    shape.width = shape.height = 12;
    shape.inChannels = shape.outChannels = 8;
    const auto request = [&shape](int key) {
        return models::sharedConvTrace("race" + std::to_string(key), shape,
                                       models::NvdlaPlacement{}, 0xACE0 + key);
    };

    std::vector<std::vector<std::shared_ptr<const models::NvdlaTrace>>> got(kThreads);
    std::latch start{kThreads};
    {
        std::vector<std::jthread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([t, &got, &start, &request] {
                start.arrive_and_wait();
                // Each thread walks the keys from a different one, so keys
                // overlap across threads from the first request on.
                for (int i = 0; i < kKeys * kRounds; ++i) {
                    got[t].push_back(request((t + i) % kKeys));
                }
            });
        }
    }

    std::map<int, const models::NvdlaTrace*> byKey;
    for (int t = 0; t < kThreads; ++t) {
        for (int i = 0; i < kKeys * kRounds; ++i) {
            const int key = (t + i) % kKeys;
            const auto [it, fresh] = byKey.emplace(key, got[t][i].get());
            EXPECT_EQ(it->second, got[t][i].get()) << "key " << key << ", thread " << t;
            if (fresh) {
                EXPECT_EQ(got[t][i]->seed, 0xACE0u + key);
            }
        }
    }
    std::set<const models::NvdlaTrace*> distinct;
    for (const auto& [key, trace] : byKey) distinct.insert(trace);
    EXPECT_EQ(distinct.size(), static_cast<std::size_t>(kKeys));
    for (const auto& [key, trace] : byKey) EXPECT_EQ(request(key).get(), trace);
}

}  // namespace
}  // namespace g5r
