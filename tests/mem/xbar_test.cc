// Crossbar: routing (plain and interleaved), response return paths through
// chained crossbars (the packet's hop stack), layer contention/retries, the
// response-layer wake order, latency, and functional access.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/test_requester.hh"
#include "mem/dram.hh"
#include "mem/dram_configs.hh"
#include "mem/simple_mem.hh"
#include "mem/xbar.hh"
#include "sim/packet_id.hh"

namespace g5r {
namespace {

using testing::TestRequester;

struct Harness {
    // Two requesters, crossbar, two memories at disjoint ranges.
    Harness() {
        Xbar::Params xp;
        xbar = std::make_unique<Xbar>(sim, "xbar", xp);
        reqA = std::make_unique<TestRequester>(sim, "reqA");
        reqB = std::make_unique<TestRequester>(sim, "reqB");

        SimpleMemory::Params mp;
        mp.latency = 10'000;
        mp.range = AddrRange{0, 1ULL << 20};
        memLo = std::make_unique<SimpleMemory>(sim, "memLo", mp, store);
        mp.range = AddrRange{1ULL << 20, 2ULL << 20};
        memHi = std::make_unique<SimpleMemory>(sim, "memHi", mp, store);

        reqA->port().bind(xbar->addCpuSidePort("a"));
        reqB->port().bind(xbar->addCpuSidePort("b"));
        xbar->addMemSidePort("lo", RouteSpec{memLo->range()}).bind(memLo->port());
        xbar->addMemSidePort("hi", RouteSpec{memHi->range()}).bind(memHi->port());
    }

    Simulation sim;
    BackingStore store;
    std::unique_ptr<Xbar> xbar;
    std::unique_ptr<TestRequester> reqA;
    std::unique_ptr<TestRequester> reqB;
    std::unique_ptr<SimpleMemory> memLo;
    std::unique_ptr<SimpleMemory> memHi;
};

TEST(Xbar, RoutesByAddressRange) {
    Harness h;
    h.reqA->issueAt(0, makeReadPacket(0x100, 8));
    h.reqA->issueAt(0, makeReadPacket((1ULL << 20) + 0x100, 8));
    h.sim.run();
    EXPECT_EQ(h.reqA->numResponses(), 2u);
    EXPECT_EQ(h.sim.findStat("memLo.numReads")->value(), 1.0);
    EXPECT_EQ(h.sim.findStat("memHi.numReads")->value(), 1.0);
}

TEST(Xbar, ResponsesReturnToCorrectRequester) {
    Harness h;
    h.store.store<std::uint64_t>(0x100, 0xA);
    h.store.store<std::uint64_t>(0x200, 0xB);
    h.reqA->issueAt(0, makeReadPacket(0x100, 8));
    h.reqB->issueAt(0, makeReadPacket(0x200, 8));
    h.sim.run();
    ASSERT_EQ(h.reqA->numResponses(), 1u);
    ASSERT_EQ(h.reqB->numResponses(), 1u);
    EXPECT_EQ(h.reqA->responses()[0].pkt->get<std::uint64_t>(), 0xAu);
    EXPECT_EQ(h.reqB->responses()[0].pkt->get<std::uint64_t>(), 0xBu);
}

TEST(Xbar, AddsForwardLatency) {
    Harness h;
    h.reqA->issueAt(0, makeReadPacket(0x100, 8));
    h.sim.run();
    ASSERT_EQ(h.reqA->numResponses(), 1u);
    // 2-cycle (1 ns) header each way at 2 GHz + 10 ns memory, plus beat
    // serialisation; strictly more than the raw memory latency.
    EXPECT_GT(h.reqA->responses()[0].tick, 10'000u + 2 * 1000u - 1);
}

TEST(Xbar, ContendingRequestersBothComplete) {
    Harness h;
    for (int i = 0; i < 50; ++i) {
        h.reqA->issueAt(0, makeReadPacket(64 * i, 64));
        h.reqB->issueAt(0, makeReadPacket(64 * i + (1 << 12), 64));
    }
    h.sim.run();
    EXPECT_EQ(h.reqA->numResponses(), 50u);
    EXPECT_EQ(h.reqB->numResponses(), 50u);
    EXPECT_GT(h.sim.findStat("xbar.layerConflicts")->value(), 0.0);
}

TEST(Xbar, InterleavedRoutingStripesBanks) {
    Simulation sim;
    BackingStore store;
    Xbar xbar{sim, "xbar", {}};
    TestRequester req{sim, "req"};
    req.port().bind(xbar.addCpuSidePort("r"));

    // Two banks striped on bit 6 (64 B lines).
    SimpleMemory::Params mp;
    mp.range = AddrRange{0, 1ULL << 20};
    SimpleMemory bank0{sim, "bank0", mp, store};
    SimpleMemory bank1{sim, "bank1", mp, store};
    xbar.addMemSidePort("b0", RouteSpec{mp.range, 6, 1, 0}).bind(bank0.port());
    xbar.addMemSidePort("b1", RouteSpec{mp.range, 6, 1, 1}).bind(bank1.port());

    for (int i = 0; i < 8; ++i) req.issueAt(0, makeReadPacket(64 * i, 64));
    sim.run();
    EXPECT_EQ(req.numResponses(), 8u);
    EXPECT_EQ(sim.findStat("bank0.numReads")->value(), 4.0);
    EXPECT_EQ(sim.findStat("bank1.numReads")->value(), 4.0);
}

TEST(Xbar, FunctionalRoutesToTheRightEndpoint) {
    Harness h;
    Packet w{MemCmd::kWriteReq, (1ULL << 20) + 0x40, 8};
    w.set<std::uint64_t>(4242);
    h.reqA->port().sendFunctional(w);
    EXPECT_EQ(h.store.load<std::uint64_t>((1ULL << 20) + 0x40), 4242u);

    Packet r{MemCmd::kReadReq, (1ULL << 20) + 0x40, 8};
    h.reqB->port().sendFunctional(r);
    EXPECT_EQ(r.get<std::uint64_t>(), 4242u);
}

TEST(Xbar, WritebacksRouteWithoutResponse) {
    Harness h;
    auto wb = Packet::make(MemCmd::kWritebackDirty, 0x300, 64);
    wb->set<std::uint64_t>(55);
    h.reqA->issueAt(0, std::move(wb));
    h.sim.run();
    EXPECT_EQ(h.reqA->numResponses(), 0u);
    EXPECT_EQ(h.store.load<std::uint64_t>(0x300), 55u);
}

TEST(Xbar, HeavyBidirectionalStress) {
    Harness h;
    for (int i = 0; i < 200; ++i) {
        if (i % 3 == 0) {
            auto w = makeWritePacket(8 * i, 8);
            w->set<std::uint64_t>(i);
            h.reqA->issueAt(i * 100, std::move(w));
        } else {
            h.reqA->issueAt(i * 100, makeReadPacket(64 * i, 8));
        }
        h.reqB->issueAt(i * 50, makeReadPacket((1ULL << 20) + 64 * i, 8));
    }
    h.sim.run();
    EXPECT_TRUE(h.reqA->allResponsesReceived());
    EXPECT_TRUE(h.reqB->allResponsesReceived());
}

/// Expected outcome of Xbar.ResponseWakeOrderIsPinned, generated with the
/// crossbar that woke every response-layer waiter on each layer release.
/// Any change to the wake order moves the delivery order, the conflict
/// count or the latency histogram.
constexpr std::pair<Tick, std::uint64_t> kPinnedDeliveries[] = {
    {2'500, 1}, {4'500, 2}, {6'500, 10}, {8'500, 18}, {10'500, 26},
    {12'500, 34}, {14'500, 42}, {16'500, 50}, {18'500, 58}, {20'500, 3},
    {22'500, 11}, {24'500, 19}, {26'500, 27}, {28'500, 35}, {30'500, 43},
    {32'500, 51}, {34'500, 59}, {36'500, 5}, {38'500, 13}, {40'500, 21},
    {42'500, 29}, {44'500, 37}, {46'500, 45}, {48'500, 53}, {50'500, 61},
    {52'500, 6}, {54'500, 14}, {56'500, 22}, {58'500, 30}, {60'500, 38},
    {62'500, 46}, {64'500, 54}, {66'500, 62}, {68'500, 7}, {70'500, 15},
    {72'500, 23}, {74'500, 31}, {76'500, 39}, {78'500, 47}, {80'500, 55},
    {82'500, 63}, {84'500, 9}, {86'500, 17}, {88'500, 25}, {90'500, 33},
    {92'500, 41}, {94'500, 49}, {96'500, 57}, {98'500, 4}, {100'500, 8},
    {102'500, 12}, {104'500, 16}, {106'500, 20}, {108'500, 24}, {110'500, 28},
    {112'500, 32}, {114'500, 36}, {116'500, 40}, {118'500, 44}, {120'500, 48},
    {122'500, 52}, {124'500, 56}, {126'500, 60}, {128'500, 64}, {130'500, 65},
    {132'500, 73}, {134'500, 81}, {136'500, 89}, {138'500, 97}, {140'500, 105},
    {142'500, 113}, {144'500, 121}, {146'500, 66}, {148'500, 74}, {150'500, 82},
    {152'500, 90}, {154'500, 98}, {156'500, 106}, {158'500, 114}, {160'500, 122},
    {162'500, 67}, {164'500, 75}, {166'500, 83}, {168'500, 91}, {170'500, 99},
    {172'500, 107}, {174'500, 115}, {176'500, 123}, {178'500, 69}, {180'500, 77},
    {182'500, 85}, {184'500, 93}, {186'500, 101}, {188'500, 109}, {190'500, 117},
    {192'500, 125}, {194'500, 70}, {196'500, 78}, {198'500, 86}, {200'500, 94},
    {202'500, 102}, {204'500, 110}, {206'500, 118}, {208'500, 126}, {210'500, 71},
    {212'500, 79}, {214'500, 87}, {216'500, 95}, {218'500, 103}, {220'500, 111},
    {222'500, 119}, {224'500, 127}, {226'500, 68}, {228'500, 72}, {230'500, 76},
    {232'500, 80}, {234'500, 84}, {236'500, 88}, {238'500, 92}, {240'500, 96},
    {242'500, 100}, {244'500, 104}, {246'500, 108}, {248'500, 112}, {250'500, 116},
    {252'500, 120}, {254'500, 124}, {256'500, 128},
};
constexpr double kPinnedLayerConflicts = 540;
/// (bucket low edge, count) of the requester's round-trip histogram.
constexpr std::pair<std::uint64_t, std::uint64_t> kPinnedLatencyBuckets[] = {
    {1'472, 1}, {3'456, 1}, {4'480, 7}, {19'456, 1}, {20'480, 7},
    {29'184, 1}, {30'208, 7}, {34'816, 8}, {45'056, 1}, {46'080, 7},
    {51'200, 8}, {61'440, 1}, {62'464, 7}, {65'536, 8}, {75'776, 8},
    {81'920, 7}, {92'160, 8}, {96'256, 1}, {98'304, 2}, {100'352, 2},
    {102'400, 2}, {104'448, 2}, {106'496, 3}, {108'544, 10}, {110'592, 2},
    {124'928, 2}, {126'976, 2}, {129'024, 2}, {131'072, 4}, {135'168, 4},
    {139'264, 2},
};

TEST(Xbar, ResponseWakeOrderIsPinned) {
    // Eight 1-cycle banks striped on the line bits (the SoC's ideal memory)
    // and one DDR4 channel all answer one requester, so every response
    // contends for its single response layer.
    Simulation sim;
    BackingStore store;
    Xbar xbar{sim, "membus", {}};
    TestRequester req{sim, "req"};
    req.port().bind(xbar.addCpuSidePort("req"));

    std::vector<std::unique_ptr<SimpleMemory>> banks;
    const AddrRange bankRange{0, 1ULL << 20};
    for (unsigned b = 0; b < 8; ++b) {
        SimpleMemory::Params mp;
        mp.range = bankRange;
        mp.latency = mp.clockPeriod;
        mp.bytesPerTick = 0.0;
        mp.maxPending = 4096;
        banks.push_back(
            std::make_unique<SimpleMemory>(sim, "mem" + std::to_string(b), mp, store));
        xbar.addMemSidePort("mem" + std::to_string(b), RouteSpec{bankRange, 6, 3, b})
            .bind(banks.back()->port());
    }
    const AddrRange dramRange{1ULL << 20, 2ULL << 20};
    MultiChannelDram dram{sim, "dram", dramParamsFor(MemTech::kDdr4_1ch, dramRange), store};
    xbar.addMemSidePort("dram", RouteSpec{dramRange}).bind(dram.port());

    // 128 line reads, every fourth one to DRAM, in two bursts of 64 that
    // keep up to 71 reads in flight. Packet IDs start at 1 for this test.
    std::uint64_t ids = 0;
    {
        const PacketIdScope scope{ids};
        for (int i = 0; i < 128; ++i) {
            const Addr addr = (i % 4 == 3 ? dramRange.start : 0) + 64 * static_cast<Addr>(i);
            req.issueAt(static_cast<Tick>(i / 64) * 100'000, makeReadPacket(addr, 64));
        }
    }
    sim.run();
    ASSERT_EQ(req.numResponses(), 128u);

    using Deliveries = std::vector<std::pair<Tick, std::uint64_t>>;
    Deliveries delivered;
    for (const auto& r : req.responses()) delivered.emplace_back(r.tick, r.pkt->id());
    EXPECT_EQ(delivered, Deliveries(std::begin(kPinnedDeliveries), std::end(kPinnedDeliveries)));
    EXPECT_EQ(sim.findStat("membus.layerConflicts")->value(), kPinnedLayerConflicts);

    const auto* hist =
        dynamic_cast<const stats::Histogram*>(sim.findStat("membus.latencyHist.req"));
    ASSERT_NE(hist, nullptr);
    using Buckets = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
    Buckets buckets;
    hist->data().forEachBucket([&buckets](std::uint64_t low, std::uint64_t, std::uint64_t n) {
        buckets.emplace_back(low, n);
    });
    EXPECT_EQ(buckets, Buckets(std::begin(kPinnedLatencyBuckets), std::end(kPinnedLatencyBuckets)));
}

// A memory-side endpoint that answers nothing on its own: a test hands it
// responses to inject toward the crossbar.
class Injector final : public ResponsePort {
public:
    using ResponsePort::ResponsePort;
    bool recvTimingReq(PacketPtr& pkt) override {
        requests.push_back(std::move(pkt));
        return true;
    }
    void recvFunctional(Packet&) override {}
    void recvRespRetry() override {}

    std::vector<PacketPtr> requests;
};

TEST(Xbar, ChainedCrossbarsRouteOutOfOrderResponsesHome) {
    // The SoC's noc -> membus shape: two requesters on the first crossbar,
    // whose one downstream port feeds the second; the second stripes a slow
    // and a fast memory. Requests are spaced so no layer ever contends.
    Simulation sim;
    BackingStore store;
    Xbar noc{sim, "noc", {}};
    Xbar membus{sim, "membus", {}};
    TestRequester reqA{sim, "reqA"};
    TestRequester reqB{sim, "reqB"};
    constexpr Tick kSlow = 20'000;
    constexpr Tick kFast = 2'000;
    SimpleMemory::Params mp;
    mp.range = AddrRange{0, 1ULL << 20};
    mp.latency = kSlow;
    SimpleMemory slow{sim, "slow", mp, store};
    mp.range = AddrRange{1ULL << 20, 2ULL << 20};
    mp.latency = kFast;
    SimpleMemory fast{sim, "fast", mp, store};

    reqA.port().bind(noc.addCpuSidePort("a"));
    reqB.port().bind(noc.addCpuSidePort("b"));
    noc.addMemSidePort("membus", RouteSpec{AddrRange{0, 2ULL << 20}})
        .bind(membus.addCpuSidePort("noc"));
    membus.addMemSidePort("slow", RouteSpec{slow.range()}).bind(slow.port());
    membus.addMemSidePort("fast", RouteSpec{fast.range()}).bind(fast.port());

    // At 2 GHz each crossing costs a 1000-tick header. A request issued at
    // T reaches membus at T+1000 and memory at T+2000; memory answers at
    // T+2000+L, noc takes the response at T+3000+L and the requester at
    // T+4000+L. So membus measures L+1000 and noc L+3000.
    struct Issue {
        TestRequester* req;
        Tick at;
        Addr addr;
        Tick latency;
    };
    const Issue issues[] = {
        {&reqA, 0, 0x100, kSlow},
        {&reqB, 5'000, (1ULL << 20) + 0x200, kFast},
        {&reqB, 10'000, 0x300, kSlow},
        {&reqA, 15'000, (1ULL << 20) + 0x400, kFast},
    };
    std::vector<std::uint64_t> idsA;
    std::vector<std::uint64_t> idsB;
    stats::HistogramData expectA;
    stats::HistogramData expectB;
    stats::HistogramData expectMembus;
    std::vector<Tick> arrivalsA;
    std::vector<Tick> arrivalsB;
    for (const Issue& is : issues) {
        PacketPtr pkt = makeReadPacket(is.addr, 8);
        const bool toA = is.req == &reqA;
        (toA ? idsA : idsB).push_back(pkt->id());
        (toA ? expectA : expectB).sampleInt(is.latency + 3'000);
        (toA ? arrivalsA : arrivalsB).push_back(is.at + is.latency + 4'000);
        expectMembus.sampleInt(is.latency + 1'000);
        is.req->issueAt(is.at, std::move(pkt));
    }
    sim.run();

    // Out of order: each requester's fast read overtakes its slow one
    // (reqA's) or the other requester's (reqB's).
    ASSERT_EQ(reqA.numResponses(), 2u);
    ASSERT_EQ(reqB.numResponses(), 2u);
    EXPECT_EQ(reqA.responses()[0].pkt->id(), idsA[1]);
    EXPECT_EQ(reqA.responses()[1].pkt->id(), idsA[0]);
    EXPECT_EQ(reqB.responses()[0].pkt->id(), idsB[0]);
    EXPECT_EQ(reqB.responses()[1].pkt->id(), idsB[1]);
    EXPECT_EQ(reqA.responses()[0].tick, arrivalsA[1]);
    EXPECT_EQ(reqA.responses()[1].tick, arrivalsA[0]);
    EXPECT_EQ(reqB.responses()[0].tick, arrivalsB[0]);
    EXPECT_EQ(reqB.responses()[1].tick, arrivalsB[1]);
    for (const auto* req : {&reqA, &reqB}) {
        for (const auto& r : req->responses()) EXPECT_EQ(r.pkt->numHops(), 0u);
    }
    EXPECT_EQ(sim.findStat("noc.layerConflicts")->value(), 0.0);
    EXPECT_EQ(sim.findStat("membus.layerConflicts")->value(), 0.0);

    const auto histData = [&sim](const std::string& stat) {
        const auto* hist = dynamic_cast<const stats::Histogram*>(sim.findStat(stat));
        EXPECT_NE(hist, nullptr) << stat;
        return hist != nullptr ? hist->data() : stats::HistogramData{};
    };
    EXPECT_TRUE(histData("noc.latencyHist.a") == expectA);
    EXPECT_TRUE(histData("noc.latencyHist.b") == expectB);
    EXPECT_TRUE(histData("membus.latencyHist.noc") == expectMembus);
}

/// Hand the crossbar a response to a request that never crossed it.
void respondWithNoHop() {
    Simulation sim;
    Xbar xbar{sim, "xbar", {}};
    TestRequester req{sim, "req"};
    Injector mem{"mem"};
    req.port().bind(xbar.addCpuSidePort("req"));
    xbar.addMemSidePort("mem", RouteSpec{AddrRange{0, 1ULL << 20}}).bind(mem);
    PacketPtr stray = makeReadPacket(0x40, 8);
    stray->makeResponse();
    mem.sendTimingResp(stray);
}

/// Send a read through one more chained crossbar than a packet has hops.
void crossTooManyCrossbars() {
    Simulation sim;
    BackingStore store;
    const AddrRange all{0, 1ULL << 20};
    std::vector<std::unique_ptr<Xbar>> chain;
    TestRequester req{sim, "req"};
    for (unsigned i = 0; i <= Packet::kMaxHops; ++i) {
        chain.push_back(std::make_unique<Xbar>(sim, strCat("x", i), Xbar::Params{}));
        if (i == 0) {
            req.port().bind(chain[0]->addCpuSidePort("req"));
        } else {
            chain[i - 1]->addMemSidePort("down", RouteSpec{all})
                .bind(chain[i]->addCpuSidePort("up"));
        }
    }
    SimpleMemory::Params mp;
    mp.range = all;
    SimpleMemory mem{sim, "mem", mp, store};
    chain.back()->addMemSidePort("mem", RouteSpec{all}).bind(mem.port());
    req.issueAt(0, makeReadPacket(0x40, 8));
    sim.run();
}

TEST(XbarDeathTest, ResponseWithNoHopPanics) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(respondWithNoHop(), "response with no recorded route");
}

TEST(XbarDeathTest, MoreNestedCrossbarsThanHopsPanicsNamingTheCrossbar) {
    static_assert(Packet::kMaxHops == 4, "the message below names x4");
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(crossTooManyCrossbars(), "xbar x4: request crosses more than 4 crossbars");
}

}  // namespace
}  // namespace g5r
