// DRAM controller behaviour: latency composition, row-buffer locality,
// bandwidth scaling across channels/technologies, write drains, and
// back-pressure.
#include <gtest/gtest.h>

#include "common/test_requester.hh"
#include "mem/dram.hh"
#include "mem/dram_configs.hh"
#include "sim/rng.hh"

namespace g5r {
namespace {

using testing::TestRequester;

constexpr AddrRange kRange{0, 4ULL << 30};

struct Harness {
    explicit Harness(MemTech tech)
        : dram(sim, "dram", dramParamsFor(tech, kRange), store), req(sim, "req") {
        req.port().bind(dram.port());
    }

    /// Issue @p lines sequential 64 B reads starting at @p base, all at t=0.
    void streamReads(Addr base, int lines) {
        for (int i = 0; i < lines; ++i) req.issueAt(0, makeReadPacket(base + 64 * i, 64));
    }

    /// Achieved read bandwidth in GB/s over the whole run.
    double achievedReadBandwidth() const {
        const double bytes = req.responses().size() * 64.0;
        return bytes / ticksToSeconds(sim.curTick()) / 1e9;
    }

    Simulation sim;
    BackingStore store;
    MultiChannelDram dram;
    TestRequester req;
};

TEST(Dram, PeakBandwidthMatchesTable1) {
    Simulation sim;
    BackingStore store;
    MultiChannelDram ddr1{sim, "d1", dramParamsFor(MemTech::kDdr4_1ch, kRange), store};
    MultiChannelDram ddr4{sim, "d4", dramParamsFor(MemTech::kDdr4_4ch, kRange), store};
    MultiChannelDram gddr{sim, "g", dramParamsFor(MemTech::kGddr5, kRange), store};
    MultiChannelDram hbm{sim, "h", dramParamsFor(MemTech::kHbm, kRange), store};
    EXPECT_NEAR(ddr1.peakBandwidth() / 1e9, 18.75, 0.05);
    EXPECT_NEAR(ddr4.peakBandwidth() / 1e9, 75.0, 0.2);
    EXPECT_NEAR(gddr.peakBandwidth() / 1e9, 112.0, 0.5);
    EXPECT_NEAR(hbm.peakBandwidth() / 1e9, 128.0, 0.5);
}

TEST(Dram, SingleReadLatencyComposition) {
    Harness h{MemTech::kDdr4_1ch};
    h.store.store<std::uint64_t>(0x1000, 99);
    h.req.issueAt(0, makeReadPacket(0x1000, 64));
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), 1u);
    const auto& p = ddr4ChannelParams();
    // Cold bank: activate (tRCD) + CAS (tCL) + burst + static latencies.
    const Tick expected = p.tRCD + p.tCL + p.tBURST + p.frontendLatency + p.backendLatency;
    EXPECT_EQ(h.req.responses()[0].tick, expected);
    EXPECT_EQ(h.req.responses()[0].pkt->get<std::uint64_t>(), 99u);
}

TEST(Dram, StreamingReadsHitRowBuffer) {
    Harness h{MemTech::kDdr4_1ch};
    h.streamReads(0, 256);
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), 256u);
    const double hits = h.dram.statsGroup().prefix().empty()
                            ? 0.0
                            : h.sim.findStat("dram.ch0.rowHits")->value();
    const double misses = h.sim.findStat("dram.ch0.rowMisses")->value();
    // 8 KiB rows = 128 lines/row: 256 sequential lines touch 2 rows.
    EXPECT_EQ(misses, 2.0);
    EXPECT_EQ(hits, 254.0);
}

TEST(Dram, StreamingApproachesPeakBandwidth) {
    Harness h{MemTech::kDdr4_1ch};
    h.streamReads(0, 2048);
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), 2048u);
    const double peak = h.dram.peakBandwidth() / 1e9;
    EXPECT_GT(h.achievedReadBandwidth(), 0.85 * peak);
}

TEST(Dram, RandomReadsFarBelowPeak) {
    Harness h{MemTech::kDdr4_1ch};
    Rng rng{7};
    for (int i = 0; i < 512; ++i) {
        const Addr addr = (rng.below(1ULL << 24)) * 64;  // Random lines in 1 GiB.
        h.req.issueAt(0, makeReadPacket(addr, 64));
    }
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), 512u);
    const double peak = h.dram.peakBandwidth() / 1e9;
    EXPECT_LT(h.achievedReadBandwidth(), 0.6 * peak);
    EXPECT_GT(h.sim.findStat("dram.ch0.rowMisses")->value(), 256.0);
}

TEST(Dram, ChannelsScaleStreamBandwidth) {
    Harness one{MemTech::kDdr4_1ch};
    Harness four{MemTech::kDdr4_4ch};
    one.streamReads(0, 1024);
    four.streamReads(0, 1024);
    one.sim.run();
    four.sim.run();
    const double bwOne = one.achievedReadBandwidth();
    const double bwFour = four.achievedReadBandwidth();
    EXPECT_GT(bwFour, 3.0 * bwOne);
}

TEST(Dram, WritesAckImmediatelyAndDrainLater) {
    Harness h{MemTech::kDdr4_1ch};
    for (int i = 0; i < 32; ++i) {
        auto pkt = makeWritePacket(64 * i, 64);
        pkt->set<std::uint64_t>(i);
        h.req.issueAt(0, std::move(pkt));
    }
    h.sim.run();
    EXPECT_EQ(h.req.numResponses(), 32u);
    // Write data must be visible.
    for (int i = 0; i < 32; ++i) {
        EXPECT_EQ(h.store.load<std::uint64_t>(64 * i), static_cast<std::uint64_t>(i));
    }
    // All writes eventually burst to the array (opportunistic drain).
    EXPECT_EQ(h.sim.findStat("dram.ch0.writeBursts")->value(), 32.0);
}

TEST(Dram, WriteAckLatencyIsFrontendOnly) {
    Harness h{MemTech::kDdr4_1ch};
    h.req.issueAt(0, makeWritePacket(0, 64));
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), 1u);
    EXPECT_EQ(h.req.responses()[0].tick, ddr4ChannelParams().frontendLatency);
}

TEST(Dram, ReadQueueBackPressure) {
    Harness h{MemTech::kDdr4_1ch};
    // Far more reads than the 64-entry read queue.
    h.streamReads(0, 512);
    h.sim.run();
    EXPECT_EQ(h.req.numResponses(), 512u);
    EXPECT_GT(h.req.retriesSeen(), 0);
    EXPECT_GT(h.sim.findStat("dram.rejectedRequests")->value(), 0.0);
}

TEST(Dram, MixedTrafficTriggersBusTurnarounds) {
    Harness h{MemTech::kDdr4_1ch};
    Rng rng{3};
    for (int i = 0; i < 256; ++i) {
        const Addr addr = 64 * i;
        if (rng.below(2) == 0) {
            h.req.issueAt(0, makeReadPacket(addr, 64));
        } else {
            h.req.issueAt(0, makeWritePacket(addr + (1 << 20), 64));
        }
    }
    h.sim.run();
    EXPECT_TRUE(h.req.allResponsesReceived());
    EXPECT_GT(h.sim.findStat("dram.ch0.busTurnarounds")->value(), 0.0);
}

TEST(Dram, WritebacksAreAbsorbed) {
    Harness h{MemTech::kDdr4_1ch};
    auto wb = Packet::make(MemCmd::kWritebackDirty, 0x4000, 64);
    wb->set<std::uint64_t>(1234);
    h.req.issueAt(0, std::move(wb));
    h.sim.run();
    EXPECT_EQ(h.req.numResponses(), 0u);
    EXPECT_EQ(h.store.load<std::uint64_t>(0x4000), 1234u);
}

// Regression (PR 9): a rejected request must be retried only when the
// (channel, queue) that rejected it actually frees. The old code fired a
// retry from every channel on every serviced request, so a saturated
// channel 0 plus a busy channel 1 produced a storm of bounced retries.
TEST(DramRetry, NoBounceOnSaturatingCrossChannelWorkload) {
    Harness h{MemTech::kDdr4_2ch};
    // Channel = (addr >> 6) % 2. Fill channel 0's 64-entry read queue, give
    // channel 1 a deep backlog, then keep hammering channel 0.
    for (int i = 0; i < 64; ++i) h.req.issueAt(0, makeReadPacket(128 * i, 64));
    for (int i = 0; i < 64; ++i) h.req.issueAt(0, makeReadPacket(128 * i + 64, 64));
    for (int i = 64; i < 164; ++i) h.req.issueAt(0, makeReadPacket(128 * i, 64));
    h.sim.run();
    EXPECT_TRUE(h.req.allResponsesReceived());
    EXPECT_EQ(h.req.numResponses(), 228u);
    // Every retry must be productive: with 100 back-pressured tail reads the
    // requester needs about one retry per freed slot. Pre-fix, channel 1's
    // services additionally bounce the retried packet off the still-full
    // channel 0 queue — dozens of extra retry/reject round trips.
    const double rejected = h.sim.findStat("dram.rejectedRequests")->value();
    EXPECT_GT(rejected, 0.0);
    EXPECT_LE(rejected, 110.0);
    EXPECT_LE(h.req.retriesSeen(), 110);
}

// Regression (PR 9): FR-FCFS must not starve the oldest request forever
// under a sustained row-hit stream to another row. The starvation cap
// forces the queue head through after maxStarvation consecutive bypasses.
TEST(DramStarvation, OldestReadCompletesWithinCap) {
    Harness h{MemTech::kDdr4_1ch};
    // 8 KiB rows, 16 banks: lines 0..127 are bank 0 row 0; line 2048
    // (addr 0x20000) is bank 0 row 1 — the starvation victim.
    constexpr Addr kVictim = 0x20000;
    for (int i = 0; i < 30; ++i) h.req.issueAt(0, makeReadPacket(64 * i, 64));
    h.req.issueAt(0, makeReadPacket(kVictim, 64));
    // A long row-0 tail, issued over time so the queue never drains and a
    // row-0 candidate is always available to bypass the victim.
    for (int i = 30; i < 128; ++i) {
        h.req.issueAt(static_cast<Tick>(i) * 4'000, makeReadPacket(64 * i, 64));
    }
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), 129u);
    std::size_t victimPos = h.req.responses().size();
    for (std::size_t i = 0; i < h.req.responses().size(); ++i) {
        if (h.req.responses()[i].pkt->addr() == kVictim) victimPos = i;
    }
    // Pre-fix the victim is bypassed by every row-0 arrival and finishes
    // dead last; with the default cap of 16 it must complete well before.
    EXPECT_LT(victimPos, 60u);
    EXPECT_GT(h.sim.findStat("dram.ch0.starvationBreaks")->value(), 0.0);
    // Row locality must survive the cap: the victim costs at most a couple
    // of extra activates (open row 1, then back to row 0).
    EXPECT_LE(h.sim.findStat("dram.ch0.rowMisses")->value(), 4.0);
}

// The cap must stay invisible on a plain sequential stream: the head is
// always the first-ready pick, so no starvation break ever fires and the
// row-hit rate matches classic FR-FCFS.
TEST(DramStarvation, SequentialStreamRowHitRateUnchanged) {
    Harness h{MemTech::kDdr4_1ch};
    h.streamReads(0, 256);
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), 256u);
    EXPECT_EQ(h.sim.findStat("dram.ch0.starvationBreaks")->value(), 0.0);
    EXPECT_EQ(h.sim.findStat("dram.ch0.rowMisses")->value(), 2.0);
    EXPECT_EQ(h.sim.findStat("dram.ch0.rowHits")->value(), 254.0);
}

// Property sweep: achieved streaming bandwidth is ordered by the technology's
// peak bandwidth across all Table 1 configurations.
class DramTechSweep : public ::testing::TestWithParam<MemTech> {};

TEST_P(DramTechSweep, StreamBandwidthWithinPeak) {
    Harness h{GetParam()};
    h.streamReads(0, 1024);
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), 1024u);
    const double achieved = h.achievedReadBandwidth();
    const double peak = h.dram.peakBandwidth() / 1e9;
    EXPECT_LE(achieved, peak * 1.001);
    EXPECT_GT(achieved, 0.5 * peak);
}

INSTANTIATE_TEST_SUITE_P(Technologies, DramTechSweep,
                         ::testing::Values(MemTech::kDdr4_1ch, MemTech::kDdr4_2ch,
                                           MemTech::kDdr4_4ch, MemTech::kGddr5,
                                           MemTech::kHbm),
                         [](const auto& paramInfo) {
                             std::string n = memTechName(paramInfo.param);
                             for (auto& c : n) if (c == '-') c = '_';
                             return n;
                         });

}  // namespace
}  // namespace g5r
