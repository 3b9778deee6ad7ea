// Packet recycling: a released packet returns to its thread's free list, and
// Packet::make hands it out again reading exactly like a new packet.
#include <gtest/gtest.h>

#include <cstdio>
#include <thread>
#include <vector>

#include "mem/packet.hh"
#include "sim/packet_id.hh"

namespace g5r {
namespace {

TEST(Packet, RecycledPacketStartsLikeANewOne) {
    std::uint64_t ids = 0;
    const PacketIdScope scope{ids};

    PacketPtr used = Packet::make(MemCmd::kWriteReq, 0x1000, 64);
    used->setRequestor(7);
    used->setReqId(42);
    used->setFlowTracked(false);  // A tracked release would need an observer.
    used->setIssueTick(12'345);
    ASSERT_TRUE(used->pushHop(3, 500));
    ASSERT_TRUE(used->pushHop(1, 1'500));
    used->setSenderTag(0xDEADBEEF);
    for (unsigned i = 0; i < 64; ++i) used->data()[i] = static_cast<std::uint8_t>(0xA0 + i);
    used->makeResponse();
    const Packet* const storage = used.get();
    used.reset();

    // LIFO: the packet just released is the one handed out next.
    PacketPtr pkt = Packet::make(MemCmd::kReadReq, 0x2000, 32);
    ASSERT_EQ(pkt.get(), storage);
    EXPECT_EQ(pkt->cmd(), MemCmd::kReadReq);
    EXPECT_EQ(pkt->addr(), 0x2000u);
    EXPECT_EQ(pkt->size(), 32u);
    EXPECT_EQ(pkt->id(), 2u);  // The next id from the active counter.
    EXPECT_EQ(pkt->requestor(), kInvalidRequestor);
    EXPECT_EQ(pkt->reqId(), 0u);
    EXPECT_FALSE(pkt->flowTracked());
    EXPECT_EQ(pkt->issueTick(), 0u);
    EXPECT_EQ(pkt->numHops(), 0u);
    EXPECT_EQ(pkt->senderTag(), 0u);
    EXPECT_FALSE(pkt->hasData());

    // The reused payload buffer is zero-filled, by data() and allocate().
    const std::uint8_t* bytes = pkt->data();
    for (unsigned i = 0; i < 32; ++i) EXPECT_EQ(bytes[i], 0u) << "byte " << i;
    pkt->data()[5] = 0xFF;
    pkt->allocate();
    for (unsigned i = 0; i < 32; ++i) EXPECT_EQ(pkt->constData()[i], 0u) << "byte " << i;
}

TEST(Packet, HopStackIsLastInFirstOut) {
    PacketPtr pkt = makeReadPacket(0x40, 8);
    for (unsigned hop = 0; hop < Packet::kMaxHops; ++hop) {
        ASSERT_TRUE(pkt->pushHop(hop, 1'000 * hop));
    }
    EXPECT_FALSE(pkt->pushHop(99, 0));  // Full: refused, stack unchanged.
    for (unsigned hop = Packet::kMaxHops; hop-- > 0;) {
        ASSERT_EQ(pkt->numHops(), hop + 1);
        EXPECT_EQ(pkt->topHop().upPort, hop);
        EXPECT_EQ(pkt->topHop().acceptTick, 1'000 * hop);
        pkt->popHop();
    }
    EXPECT_EQ(pkt->numHops(), 0u);
}

TEST(Packet, ThreadRecyclesItsOwnPacketsAndFreesThemAtExit) {
    // A worker thread (one --jobs runner) fills its free list and exits; the
    // list deletes what it holds, so a leak check sees nothing left behind.
    bool reused = false;
    std::thread worker{[&reused] {
        std::vector<PacketPtr> live;
        for (int i = 0; i < 64; ++i) live.push_back(makeWritePacket(64 * i, 64));
        PacketPtr last = std::move(live.back());
        live.clear();
        const Packet* const top = last.get();
        last.reset();  // Released last, so handed out first.
        PacketPtr again = makeReadPacket(0, 64);
        reused = again.get() == top;
        for (int i = 0; i < 16; ++i) live.push_back(makeReadPacket(64 * i, 8));
    }};
    worker.join();
    EXPECT_TRUE(reused);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(PacketDeathTest, UseAfterReleaseIsReportedUnderAsan) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            PacketPtr pkt = makeReadPacket(0x40, 8);
            const Packet* const stale = pkt.get();
            pkt.reset();
            std::printf("%llu\n", static_cast<unsigned long long>(stale->addr()));
        },
        "use-after-poison");
}
#endif

}  // namespace
}  // namespace g5r
