// Per-requestor crossbar latency histograms and their obs/ summaries.
#include <gtest/gtest.h>

#include <sstream>

#include "common/test_requester.hh"
#include "exp/json.hh"
#include "mem/simple_mem.hh"
#include "mem/xbar.hh"
#include "obs/session.hh"

namespace g5r {
namespace {

using testing::TestRequester;

struct Harness {
    Harness() {
        Xbar::Params xp;
        xbar = std::make_unique<Xbar>(sim, "xbar", xp);
        reqA = std::make_unique<TestRequester>(sim, "reqA");
        reqB = std::make_unique<TestRequester>(sim, "reqB");

        SimpleMemory::Params mp;
        mp.latency = 10'000;
        mp.range = AddrRange{0, 1ULL << 20};
        mem = std::make_unique<SimpleMemory>(sim, "mem", mp, store);

        reqA->port().bind(xbar->addCpuSidePort("a"));
        reqB->port().bind(xbar->addCpuSidePort("b"));
        xbar->addMemSidePort("m", RouteSpec{mem->range()}).bind(mem->port());
    }

    Simulation sim;
    BackingStore store;
    std::unique_ptr<Xbar> xbar;
    std::unique_ptr<TestRequester> reqA;
    std::unique_ptr<TestRequester> reqB;
    std::unique_ptr<SimpleMemory> mem;
};

const stats::Histogram* latencyHist(const Harness& h, const char* name) {
    return dynamic_cast<const stats::Histogram*>(h.sim.findStat(name));
}

TEST(XbarLatency, DistributionCountsEveryRoundTrip) {
    Harness h;
    constexpr int kA = 5, kB = 3;
    for (int i = 0; i < kA; ++i) h.reqA->issueAt(0, makeReadPacket(64 * i, 64));
    for (int i = 0; i < kB; ++i) h.reqB->issueAt(0, makeReadPacket(0x8000 + 64 * i, 64));
    h.sim.run();
    ASSERT_EQ(h.reqA->numResponses(), kA);
    ASSERT_EQ(h.reqB->numResponses(), kB);

    const auto* histA = latencyHist(h, "xbar.latencyHist.a");
    const auto* histB = latencyHist(h, "xbar.latencyHist.b");
    ASSERT_NE(histA, nullptr);
    ASSERT_NE(histB, nullptr);
    EXPECT_EQ(histA->count(), kA);
    EXPECT_EQ(histB->count(), kB);

    // Round trips take at least the memory latency, and the summary is
    // ordered sanely.
    EXPECT_GE(histA->minValue(), 10'000.0);
    EXPECT_LE(histA->minValue(), histA->mean());
    EXPECT_LE(histA->mean(), histA->maxValue());
    EXPECT_LE(histA->quantile(0.99), histA->maxValue());
}

TEST(XbarLatency, WritebacksDoNotSampleLatency) {
    Harness h;
    auto wb = Packet::make(MemCmd::kWritebackDirty, 0x100, 64);
    h.reqA->issueAt(0, std::move(wb));
    h.sim.run();
    const auto* hist = latencyHist(h, "xbar.latencyHist.a");
    ASSERT_NE(hist, nullptr);
    // No response ever returned, so nothing was sampled.
    EXPECT_EQ(hist->count(), 0u);
}

// One summary per cpu-side port, in registration order, with every field
// read from that port's histogram.
TEST(XbarLatency, PortLatenciesSummarisesEveryMaster) {
    Harness h;
    for (int i = 0; i < 6; ++i) h.reqA->issueAt(100 * i, makeReadPacket(64 * i, 64));
    for (int i = 0; i < 2; ++i) h.reqB->issueAt(0, makeReadPacket(0x8000 + 64 * i, 64));
    h.sim.run();

    const auto latencies = obs::portLatencies(h.xbar->statsGroup());
    ASSERT_EQ(latencies.size(), 2u);
    EXPECT_EQ(latencies[0].first, "a");
    EXPECT_EQ(latencies[1].first, "b");
    EXPECT_EQ(latencies[0].second.count, 6u);
    EXPECT_EQ(latencies[1].second.count, 2u);
    for (const auto& [suffix, summary] : latencies) {
        SCOPED_TRACE(suffix);
        const auto* hist = latencyHist(h, ("xbar.latencyHist." + suffix).c_str());
        ASSERT_NE(hist, nullptr);
        EXPECT_EQ(summary.count, hist->count());
        EXPECT_EQ(summary.minTicks, hist->minValue());
        EXPECT_EQ(summary.meanTicks, hist->mean());
        EXPECT_EQ(summary.maxTicks, hist->maxValue());
        EXPECT_EQ(summary.p50Ticks, hist->quantile(0.50));
        EXPECT_EQ(summary.p99Ticks, hist->quantile(0.99));
    }
}

TEST(XbarLatency, AppearsInTextAndJsonStatDumps) {
    Harness h;
    h.reqA->issueAt(0, makeReadPacket(0x0, 64));
    h.sim.run();

    std::ostringstream os;
    h.sim.dumpStats(os);
    EXPECT_NE(os.str().find("xbar.latencyHist.a"), std::string::npos);

    const exp::Json doc = exp::Json::parse(h.sim.dumpStatsJson().dump());
    const exp::Json& lat = doc.at("xbar").at("latencyHist.a");
    EXPECT_EQ(lat.at("count").asInt(), 1);
    EXPECT_GT(lat.at("mean").asDouble(), 0.0);
    EXPECT_TRUE(lat.contains("p99"));
}

}  // namespace
}  // namespace g5r
