// SimpleMemory timing: latency, bandwidth serialisation, back-pressure,
// writeback absorption, and functional access.
#include <gtest/gtest.h>

#include "common/test_requester.hh"
#include "mem/simple_mem.hh"

namespace g5r {
namespace {

using testing::TestRequester;

struct Harness {
    explicit Harness(SimpleMemory::Params params = defaultParams())
        : mem(sim, "mem", params, store), req(sim, "req") {
        req.port().bind(mem.port());
    }

    static SimpleMemory::Params defaultParams() {
        SimpleMemory::Params p;
        p.range = AddrRange{0, 1ULL << 30};
        p.latency = 10'000;  // 10 ns
        return p;
    }

    Simulation sim;
    BackingStore store;
    SimpleMemory mem;
    TestRequester req;
};

TEST(SimpleMem, ReadReturnsAfterFixedLatency) {
    Harness h;
    h.store.store<std::uint64_t>(0x100, 4242);
    h.req.issueAt(0, makeReadPacket(0x100, 8));
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), 1u);
    EXPECT_EQ(h.req.responses()[0].tick, 10'000u);
    EXPECT_EQ(h.req.responses()[0].pkt->get<std::uint64_t>(), 4242u);
}

TEST(SimpleMem, WriteUpdatesStoreAndResponds) {
    Harness h;
    auto pkt = makeWritePacket(0x200, 8);
    pkt->set<std::uint64_t>(777);
    h.req.issueAt(0, std::move(pkt));
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), 1u);
    EXPECT_EQ(h.req.responses()[0].pkt->cmd(), MemCmd::kWriteResp);
    EXPECT_EQ(h.store.load<std::uint64_t>(0x200), 777u);
}

TEST(SimpleMem, WritebackIsAbsorbedWithoutResponse) {
    Harness h;
    auto wb = Packet::make(MemCmd::kWritebackDirty, 0x300, 8);
    wb->set<std::uint64_t>(555);
    h.req.issueAt(0, std::move(wb));
    h.sim.run();
    EXPECT_EQ(h.req.numResponses(), 0u);
    EXPECT_EQ(h.store.load<std::uint64_t>(0x300), 555u);
    EXPECT_TRUE(h.req.allResponsesReceived());
}

TEST(SimpleMem, BandwidthSerialisesBackToBackReads) {
    auto params = Harness::defaultParams();
    params.bytesPerTick = 0.064;  // 64 bytes take 1000 ticks on the channel.
    Harness h{params};
    for (int i = 0; i < 4; ++i) h.req.issueAt(0, makeReadPacket(0x1000 + 64 * i, 64));
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), 4u);
    // Each response is spaced by the 1000-tick channel occupancy.
    for (int i = 1; i < 4; ++i) {
        EXPECT_EQ(h.req.responses()[i].tick - h.req.responses()[i - 1].tick, 1000u)
            << "response " << i;
    }
}

TEST(SimpleMem, UnlimitedBandwidthDeliversSameTick) {
    Harness h;  // bytesPerTick == 0 -> no serialisation.
    for (int i = 0; i < 4; ++i) h.req.issueAt(0, makeReadPacket(0x1000 + 64 * i, 64));
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), 4u);
    for (const auto& r : h.req.responses()) EXPECT_EQ(r.tick, 10'000u);
}

TEST(SimpleMem, BackPressureTriggersRetry) {
    auto params = Harness::defaultParams();
    params.maxPending = 2;
    Harness h{params};
    for (int i = 0; i < 6; ++i) h.req.issueAt(0, makeReadPacket(0x100 * i, 8));
    h.sim.run();
    EXPECT_EQ(h.req.numResponses(), 6u);
    EXPECT_GT(h.req.retriesSeen(), 0);
    EXPECT_TRUE(h.req.allResponsesReceived());
}

TEST(SimpleMem, FunctionalAccessBypassesTiming) {
    Harness h;
    Packet write{MemCmd::kWriteReq, 0x400, 4};
    write.set<std::uint32_t>(31337);
    h.req.port().sendFunctional(write);
    Packet read{MemCmd::kReadReq, 0x400, 4};
    h.req.port().sendFunctional(read);
    EXPECT_EQ(read.get<std::uint32_t>(), 31337u);
    EXPECT_EQ(h.sim.curTick(), 0u);
}

TEST(SimpleMem, StatsCountTraffic) {
    Harness h;
    h.req.issueAt(0, makeReadPacket(0x0, 64));
    h.req.issueAt(0, makeWritePacket(0x40, 64));
    h.sim.run();
    EXPECT_DOUBLE_EQ(h.mem.statsGroup().find("numReads")->value(), 1.0);
    EXPECT_DOUBLE_EQ(h.mem.statsGroup().find("numWrites")->value(), 1.0);
    EXPECT_DOUBLE_EQ(h.mem.statsGroup().find("bytesRead")->value(), 64.0);
    EXPECT_DOUBLE_EQ(h.mem.statsGroup().find("bytesWritten")->value(), 64.0);
}

// Property-style sweep: total completion time of a fixed burst scales with
// the configured channel bandwidth.
class SimpleMemBandwidthSweep : public ::testing::TestWithParam<double> {};

TEST_P(SimpleMemBandwidthSweep, BurstDurationMatchesBandwidth) {
    auto params = Harness::defaultParams();
    params.bytesPerTick = GetParam();
    Harness h{params};
    constexpr int kPackets = 16;
    for (int i = 0; i < kPackets; ++i) h.req.issueAt(0, makeReadPacket(64 * i, 64));
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), kPackets);
    const Tick last = h.req.responses().back().tick;
    const Tick expectedOccupancy =
        static_cast<Tick>(64.0 / GetParam()) * (kPackets - 1);
    EXPECT_EQ(last, params.latency + static_cast<Tick>(64.0 / GetParam()) + expectedOccupancy);
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, SimpleMemBandwidthSweep,
                         ::testing::Values(0.016, 0.032, 0.064, 0.128));

}  // namespace
}  // namespace g5r
