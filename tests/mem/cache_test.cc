// Cache behaviour: hits/misses, MSHR merging and exhaustion, write-allocate,
// dirty writebacks, LRU victimisation (also against a brute-force reference),
// prefetching, uncacheable forwarding, multi-level stacking, storage made on
// first fill, and parameter validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "common/test_requester.hh"
#include "mem/cache/cache.hh"
#include "mem/simple_mem.hh"

namespace g5r {
namespace {

using testing::TestRequester;

constexpr Tick kMemLatency = 40'000;  // 40 ns backing memory.

struct Harness {
    explicit Harness(CacheParams cacheParams = smallCache())
        : cache(sim, "l1", cacheParams), mem(sim, "mem", memParams(), store), req(sim, "req") {
        req.port().bind(cache.cpuSidePort());
        cache.memSidePort().bind(mem.port());
    }

    static CacheParams smallCache() {
        CacheParams p;
        p.sizeBytes = 4 * 1024;  // 4 KiB, 4-way, 64 B lines -> 16 sets.
        p.assoc = 4;
        p.lookupLatency = 2;
        p.responseLatency = 2;
        p.mshrs = 4;
        return p;
    }

    static SimpleMemory::Params memParams() {
        SimpleMemory::Params p;
        p.range = AddrRange{0, 1ULL << 30};
        p.latency = kMemLatency;
        return p;
    }

    double stat(const std::string& statName) const {
        return sim.findStat("l1." + statName)->value();
    }

    Simulation sim;
    BackingStore store;
    Cache cache;
    SimpleMemory mem;
    TestRequester req;
};

TEST(Cache, ColdMissThenHit) {
    Harness h;
    h.store.store<std::uint64_t>(0x1000, 11);

    h.req.issueAt(0, makeReadPacket(0x1000, 8));
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), 1u);
    EXPECT_EQ(h.req.responses()[0].pkt->get<std::uint64_t>(), 11u);
    const Tick missLatency = h.req.responses()[0].tick;
    EXPECT_GT(missLatency, kMemLatency);

    // Second access to the same line is a fast hit.
    h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(0x1008, 8));
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), 2u);
    const Tick hitLatency = h.req.responses()[1].tick - h.req.responses()[1].pkt->issueTick();
    EXPECT_LT(hitLatency, kMemLatency);
    EXPECT_EQ(h.stat("hits"), 1.0);
    EXPECT_EQ(h.stat("misses"), 1.0);
}

TEST(Cache, MissesToSameLineMergeInMshr) {
    Harness h;
    for (int i = 0; i < 4; ++i) h.req.issueAt(0, makeReadPacket(0x2000 + 8 * i, 8));
    h.sim.run();
    EXPECT_EQ(h.req.numResponses(), 4u);
    EXPECT_EQ(h.stat("misses"), 1.0);
    EXPECT_EQ(h.stat("mshrHits"), 3.0);
    // Only one line fetch reached memory.
    EXPECT_EQ(h.sim.findStat("mem.numReads")->value(), 1.0);
}

TEST(Cache, MshrExhaustionBackPressures) {
    Harness h;  // 4 MSHRs.
    for (int i = 0; i < 16; ++i) h.req.issueAt(0, makeReadPacket(0x10000 + 64 * i, 8));
    h.sim.run();
    EXPECT_EQ(h.req.numResponses(), 16u);
    EXPECT_GT(h.stat("blockedOnMshrs"), 0.0);
    EXPECT_GT(h.req.retriesSeen(), 0);
}

TEST(Cache, WriteAllocateFetchesLineAndDirtiesIt) {
    Harness h;
    h.store.store<std::uint64_t>(0x3000, 0xAAAAAAAAAAAAAAAAULL);
    auto w = makeWritePacket(0x3008, 8);
    w->set<std::uint64_t>(0x5555555555555555ULL);
    h.req.issueAt(0, std::move(w));
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), 1u);
    EXPECT_TRUE(h.cache.isCached(0x3000));
    EXPECT_TRUE(h.cache.isDirty(0x3000));

    // The line holds both the fetched and the written data.
    Packet probe{MemCmd::kReadReq, 0x3000, 16};
    h.req.port().sendFunctional(probe);
    EXPECT_EQ(probe.get<std::uint64_t>(), 0xAAAAAAAAAAAAAAAAULL);
}

TEST(Cache, DirtyVictimWrittenBack) {
    Harness h;
    // 16 sets -> addresses 64*16 apart map to the same set. 4-way: the fifth
    // distinct line evicts the LRU.
    const Addr setStride = 64 * 16;
    auto w = makeWritePacket(0x0, 8);
    w->set<std::uint64_t>(123);
    h.req.issueAt(0, std::move(w));
    h.sim.run();
    ASSERT_TRUE(h.cache.isDirty(0x0));

    for (int i = 1; i <= 4; ++i) {
        h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(setStride * i, 8));
        h.sim.run();
    }
    EXPECT_FALSE(h.cache.isCached(0x0));
    EXPECT_EQ(h.stat("writebacks"), 1.0);
    // The written data survived in memory.
    EXPECT_EQ(h.store.load<std::uint64_t>(0x0), 123u);
}

TEST(Cache, CleanVictimSilentlyDropped) {
    Harness h;
    const Addr setStride = 64 * 16;
    for (int i = 0; i <= 4; ++i) {
        h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(setStride * i, 8));
        h.sim.run();
    }
    EXPECT_FALSE(h.cache.isCached(0x0));
    EXPECT_EQ(h.stat("writebacks"), 0.0);
}

TEST(Cache, LruKeepsRecentlyUsedLines) {
    Harness h;
    const Addr setStride = 64 * 16;
    // Fill the set: lines 0..3.
    for (int i = 0; i < 4; ++i) {
        h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(setStride * i, 8));
        h.sim.run();
    }
    // Touch line 0 so line 1 becomes LRU.
    h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(0, 8));
    h.sim.run();
    // Insert line 4: must evict line 1, not line 0.
    h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(setStride * 4, 8));
    h.sim.run();
    EXPECT_TRUE(h.cache.isCached(0));
    EXPECT_FALSE(h.cache.isCached(setStride));
}

TEST(Cache, StridePrefetcherIssuesAndFills) {
    auto params = Harness::smallCache();
    params.enablePrefetcher = true;
    params.prefetchDegree = 2;
    params.mshrs = 8;
    Harness h{params};

    // A regular stride of 2 lines; after the detector warms up, prefetches
    // should cover upcoming misses.
    for (int i = 0; i < 8; ++i) {
        h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(0x40000 + i * 128, 8));
        h.sim.run();
    }
    EXPECT_GT(h.stat("prefetchesIssued"), 0.0);
    EXPECT_GT(h.stat("prefetchFills"), 0.0);
    // A line beyond the last demand access is already resident.
    EXPECT_TRUE(h.cache.isCached(0x40000 + 8 * 128));
}

TEST(Cache, UncacheableForwardedNotCached) {
    auto params = Harness::smallCache();
    params.uncacheable.push_back(AddrRange{0x8000000, 0x8001000});
    Harness h{params};
    h.store.store<std::uint32_t>(0x8000010, 777);

    h.req.issueAt(0, makeReadPacket(0x8000010, 4));
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), 1u);
    EXPECT_EQ(h.req.responses()[0].pkt->get<std::uint32_t>(), 777u);
    EXPECT_FALSE(h.cache.isCached(0x8000010));
    EXPECT_EQ(h.stat("hits"), 0.0);
    EXPECT_EQ(h.stat("misses"), 0.0);

    // Repeated access goes to memory every time.
    h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(0x8000010, 4));
    h.sim.run();
    EXPECT_EQ(h.sim.findStat("mem.numReads")->value(), 2.0);
}

TEST(Cache, FunctionalWritesUpdateCachedLine) {
    Harness h;
    h.req.issueAt(0, makeReadPacket(0x5000, 8));
    h.sim.run();
    ASSERT_TRUE(h.cache.isCached(0x5000));

    Packet w{MemCmd::kWriteReq, 0x5000, 8};
    w.set<std::uint64_t>(31415);
    h.req.port().sendFunctional(w);

    Packet r{MemCmd::kReadReq, 0x5000, 8};
    h.req.port().sendFunctional(r);
    EXPECT_EQ(r.get<std::uint64_t>(), 31415u);
    EXPECT_TRUE(h.cache.isDirty(0x5000));
}

// Two-level hierarchy: L1 -> L2 -> memory.
struct TwoLevel {
    TwoLevel() : l1(sim, "l1", l1Params()), l2(sim, "l2", l2Params()),
                 mem(sim, "mem", Harness::memParams(), store), req(sim, "req") {
        req.port().bind(l1.cpuSidePort());
        l1.memSidePort().bind(l2.cpuSidePort());
        l2.memSidePort().bind(mem.port());
    }

    static CacheParams l1Params() {
        auto p = Harness::smallCache();
        p.sizeBytes = 1024;  // Tiny L1 (4 sets) to force capacity misses.
        return p;
    }
    static CacheParams l2Params() {
        auto p = Harness::smallCache();
        p.sizeBytes = 16 * 1024;
        p.assoc = 8;
        p.lookupLatency = 9;
        p.mshrs = 24;
        return p;
    }

    Simulation sim;
    BackingStore store;
    Cache l1;
    Cache l2;
    SimpleMemory mem;
    TestRequester req;
};

TEST(CacheHierarchy, L2CatchesL1CapacityMisses) {
    TwoLevel h;
    // Touch 32 lines (2 KiB): fits in L2, thrashes the 1 KiB L1.
    for (int i = 0; i < 32; ++i) {
        h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(64 * i, 8));
        h.sim.run();
    }
    // Second sweep: L1 misses again, L2 hits, memory sees no new reads.
    const double memReadsAfterFirstSweep = h.sim.findStat("mem.numReads")->value();
    for (int i = 0; i < 32; ++i) {
        h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(64 * i, 8));
        h.sim.run();
    }
    EXPECT_EQ(h.sim.findStat("mem.numReads")->value(), memReadsAfterFirstSweep);
    EXPECT_GT(h.sim.findStat("l2.hits")->value(), 0.0);
}

TEST(CacheHierarchy, DirtyDataMigratesDownTheHierarchy) {
    TwoLevel h;
    auto w = makeWritePacket(0x0, 8);
    w->set<std::uint64_t>(0xBEEF);
    h.req.issueAt(0, std::move(w));
    h.sim.run();

    // Evict from L1 by touching the other lines of set 0 (4 sets in L1).
    for (int i = 1; i <= 4; ++i) {
        h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(64 * 4 * i, 8));
        h.sim.run();
    }
    EXPECT_FALSE(h.l1.isCached(0x0));
    // The writeback landed in L2 (absorbed as a hit there), dirty.
    EXPECT_TRUE(h.l2.isCached(0x0));
    EXPECT_TRUE(h.l2.isDirty(0x0));

    // And the data is still readable.
    h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(0x0, 8));
    h.sim.run();
    EXPECT_EQ(h.req.responses().back().pkt->get<std::uint64_t>(), 0xBEEFu);
}

// Property sweep: for any associativity, a working set of exactly `assoc`
// same-set lines never evicts, and `assoc + 1` always does.
class CacheAssocSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(CacheAssocSweep, WorkingSetFitsExactlyAssocWays) {
    auto params = Harness::smallCache();
    params.assoc = GetParam();
    params.sizeBytes = 64 * 16 * params.assoc;  // Keep 16 sets.
    Harness h{params};
    const Addr setStride = 64 * 16;
    const unsigned assoc = GetParam();

    for (unsigned round = 0; round < 3; ++round) {
        for (unsigned i = 0; i < assoc; ++i) {
            h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(setStride * i, 8));
            h.sim.run();
        }
    }
    // After the first round everything hits: misses == assoc.
    EXPECT_EQ(h.stat("misses"), assoc);

    h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(setStride * assoc, 8));
    h.sim.run();
    EXPECT_EQ(h.stat("misses"), assoc + 1.0);
    // One of the original lines is gone.
    unsigned resident = 0;
    for (unsigned i = 0; i <= assoc; ++i) {
        resident += h.cache.isCached(setStride * i) ? 1 : 0;
    }
    EXPECT_EQ(resident, assoc);
}

INSTANTIATE_TEST_SUITE_P(Assoc, CacheAssocSweep, ::testing::Values(1u, 2u, 4u, 8u, 16u));

// Brute-force write-back LRU: each set is a vector of its resident lines,
// least recently used first.
class LruReference {
public:
    LruReference(unsigned numSets, unsigned assoc, unsigned lineSize)
        : sets_(numSets), assoc_(assoc), lineSize_(lineSize) {}

    void access(Addr blockAddr, bool write) {
        auto& set = sets_[(blockAddr / lineSize_) % sets_.size()];
        auto it = std::find_if(set.begin(), set.end(),
                               [&](const Entry& e) { return e.blockAddr == blockAddr; });
        Entry entry{blockAddr, write};
        if (it != set.end()) {
            ++hits;
            entry.dirty = it->dirty || write;
            set.erase(it);
        } else {
            ++misses;
            if (set.size() == assoc_) {
                writebacks += set.front().dirty ? 1 : 0;
                set.erase(set.begin());
            }
        }
        set.push_back(entry);
    }

    bool isCached(Addr blockAddr) const { return find(blockAddr) != nullptr; }
    bool isDirty(Addr blockAddr) const {
        const Entry* e = find(blockAddr);
        return e != nullptr && e->dirty;
    }

    double hits = 0;
    double misses = 0;
    double writebacks = 0;

private:
    struct Entry {
        Addr blockAddr;
        bool dirty;
    };

    const Entry* find(Addr blockAddr) const {
        const auto& set = sets_[(blockAddr / lineSize_) % sets_.size()];
        for (const Entry& e : set) {
            if (e.blockAddr == blockAddr) return &e;
        }
        return nullptr;
    }

    std::vector<std::vector<Entry>> sets_;
    unsigned assoc_;
    unsigned lineSize_;
};

// Differential check: a seeded random read/write stream over three times the
// cache's capacity, one access at a time, must leave the real cache's stats,
// residency, dirtiness and read data exactly where the reference says.
class CacheLruDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(CacheLruDifferential, MatchesBruteForceLru) {
    constexpr unsigned kSets = 8;
    constexpr unsigned kLine = 64;
    const unsigned assoc = GetParam();
    auto params = Harness::smallCache();
    params.assoc = assoc;
    params.sizeBytes = kSets * kLine * assoc;
    Harness h{params};
    LruReference ref{kSets, assoc, kLine};

    const unsigned workingSetLines = 3 * kSets * assoc;
    std::mt19937_64 rng{0x5EED0000u + assoc};
    std::map<Addr, std::uint64_t> shadow;  // Every word written so far.
    std::vector<Addr> touched;

    for (int i = 0; i < 3000; ++i) {
        const Addr block = Addr{rng() % workingSetLines} * kLine;
        const Addr addr = block + (rng() % (kLine / 8)) * 8;
        const bool write = rng() % 3 == 0;
        if (std::find(touched.begin(), touched.end(), block) == touched.end()) {
            touched.push_back(block);
        }

        if (write) {
            const std::uint64_t value = rng();
            auto pkt = makeWritePacket(addr, 8);
            pkt->set<std::uint64_t>(value);
            shadow[addr] = value;
            h.req.issueAt(h.sim.curTick() + 1, std::move(pkt));
        } else {
            h.req.issueAt(h.sim.curTick() + 1, makeReadPacket(addr, 8));
        }
        h.sim.run();
        ref.access(block, write);

        ASSERT_EQ(h.req.numResponses(), static_cast<std::size_t>(i + 1));
        if (!write) {
            const auto it = shadow.find(addr);
            ASSERT_EQ(h.req.responses().back().pkt->get<std::uint64_t>(),
                      it == shadow.end() ? 0u : it->second)
                << "access " << i << " read 0x" << std::hex << addr;
        }
        ASSERT_EQ(h.stat("hits"), ref.hits) << "access " << i;
        ASSERT_EQ(h.stat("misses"), ref.misses) << "access " << i;
        ASSERT_EQ(h.stat("writebacks"), ref.writebacks) << "access " << i;
        for (const Addr line : touched) {
            ASSERT_EQ(h.cache.isCached(line), ref.isCached(line))
                << "access " << i << " line 0x" << std::hex << line;
            ASSERT_EQ(h.cache.isDirty(line), ref.isDirty(line))
                << "access " << i << " line 0x" << std::hex << line;
        }
    }
    // The stream really thrashed: every way was a victim many times over.
    EXPECT_GT(ref.misses, 10.0 * kSets * assoc);
    EXPECT_GT(ref.writebacks, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Assoc, CacheLruDifferential, ::testing::Values(1u, 2u, 4u, 16u));

// A cache that has never filled (the Table 1 LLC bank geometry: 2 MiB,
// 16-way) holds no storage; functional traffic passes straight to memory.
TEST(Cache, NeverFilledCacheForwardsFunctionalAccessesAndHoldsNoStorage) {
    auto params = Harness::smallCache();
    params.sizeBytes = 2 * 1024 * 1024;
    params.assoc = 16;
    Harness h{params};
    EXPECT_EQ(h.cache.storageBytes(), 0u);

    // An odd-sized write straddling two lines, as a segment loader issues.
    Packet w{MemCmd::kWriteReq, 0x103B, 13};
    for (unsigned i = 0; i < 13; ++i) w.data()[i] = static_cast<std::uint8_t>(0xA0 + i);
    h.req.port().sendFunctional(w);
    for (unsigned i = 0; i < 13; ++i) {
        EXPECT_EQ(h.store.load<std::uint8_t>(0x103B + i), 0xA0 + i) << "byte " << i;
    }
    EXPECT_EQ(h.store.load<std::uint8_t>(0x103A), 0u);
    EXPECT_EQ(h.store.load<std::uint8_t>(0x1048), 0u);

    h.store.store<std::uint64_t>(0x2000, 0x0123456789ABCDEFULL);
    Packet r{MemCmd::kReadReq, 0x2000, 8};
    h.req.port().sendFunctional(r);
    EXPECT_EQ(r.get<std::uint64_t>(), 0x0123456789ABCDEFULL);

    EXPECT_FALSE(h.cache.isCached(0x1000));
    EXPECT_FALSE(h.cache.isCached(0x1040));
    EXPECT_FALSE(h.cache.isCached(0x2000));
    EXPECT_EQ(h.cache.storageBytes(), 0u);

    // The first fill materialises the whole array, and the line is served.
    h.req.issueAt(0, makeReadPacket(0x2000, 8));
    h.sim.run();
    ASSERT_EQ(h.req.numResponses(), 1u);
    EXPECT_EQ(h.req.responses()[0].pkt->get<std::uint64_t>(), 0x0123456789ABCDEFULL);
    EXPECT_TRUE(h.cache.isCached(0x2000));
    EXPECT_GE(h.cache.storageBytes(), std::size_t{params.sizeBytes});
}

// Geometry that cannot divide into power-of-two sets of whole lines is
// rejected before the set count is computed.
void buildCache(const CacheParams& params) {
    Simulation sim;
    Cache cache(sim, "l1", params);
}

TEST(CacheDeath, ZeroAssociativityPanics) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto params = Harness::smallCache();
    params.assoc = 0;
    EXPECT_DEATH(buildCache(params), "associativity must be non-zero");
}

TEST(CacheDeath, NonPowerOfTwoLineSizePanics) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto params = Harness::smallCache();
    params.lineSize = 48;
    params.sizeBytes = 48 * 4 * 16;  // Divides evenly into 16 sets.
    EXPECT_DEATH(buildCache(params), "line size must be a non-zero power of two");
    params.lineSize = 0;
    EXPECT_DEATH(buildCache(params), "line size must be a non-zero power of two");
}

TEST(CacheDeath, SizeNotAMultipleOfSetBytesPanics) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto params = Harness::smallCache();
    params.sizeBytes = 4 * 1024 + 64;  // 16 sets of 4 x 64 B plus a stray line.
    EXPECT_DEATH(buildCache(params), "size must be a multiple of lineSize \\* assoc");
}

}  // namespace
}  // namespace g5r
