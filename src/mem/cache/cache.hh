// Set-associative write-back cache with MSHRs.
//
// Models the timing behaviours Table 1 parameterises: lookup latency, MSHR
// occupancy limits (back-pressure when exhausted), dirty-victim writebacks,
// and an optional stride prefetcher (used at L2). Lines carry real data, so
// the hierarchy is functionally correct, not just a timing filter.
//
// Tags and line data live in two flat arrays (set-major, way-minor) that are
// allocated on the first fill, not at construction: a cache that is built but
// never filled (the Table 1 LLC under accelerator-only runs) costs nothing
// proportional to its size, and its lookups miss at once.
//
// Uncacheable requests (device registers, RTL-model CSB space) are forwarded
// downstream unmodified and matched back to their response by packet id.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mem/addr_range.hh"
#include "mem/cache/stride_prefetcher.hh"
#include "mem/packet.hh"
#include "mem/port.hh"
#include "sim/clocked.hh"
#include "sim/event.hh"
#include "sim/hw_events.hh"
#include "sim/simulation.hh"

namespace g5r {

struct CacheParams {
    unsigned sizeBytes = 64 * 1024;
    unsigned assoc = 4;
    unsigned lineSize = 64;
    Cycles lookupLatency = 2;    ///< Tag+data access on a hit.
    Cycles responseLatency = 2;  ///< Fill-to-response path on a miss return.
    unsigned mshrs = 8;          ///< Outstanding distinct-line misses.
    Tick clockPeriod = periodFromGHz(2);
    bool enablePrefetcher = false;  ///< Stride prefetcher on the miss stream.
    unsigned prefetchDegree = 1;
    std::vector<AddrRange> uncacheable;  ///< Forwarded around the cache.
};

class Cache : public ClockedObject {
public:
    Cache(Simulation& sim, std::string name, const CacheParams& params);

    ResponsePort& cpuSidePort() { return cpuSide_; }
    RequestPort& memSidePort() { return memSide_; }

    // Introspection for tests.
    bool isCached(Addr addr) const;
    bool isDirty(Addr addr) const;
    unsigned mshrsInUse() const { return static_cast<unsigned>(mshrs_.size()); }
    /// Host bytes held by tags and line data: 0 until the first fill.
    std::size_t storageBytes() const { return tags_.size() * (sizeof(Tag) + params_.lineSize); }

    /// Pulse a hardware-event line on every demand miss (PMU wiring).
    void setMissEvent(HwEventBus* bus, unsigned line) {
        missEventBus_ = bus;
        missEventLine_ = line;
    }

private:
    struct Tag {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUsed = 0;
    };

    /// A line is its flat index, set * assoc + way, into tags_ and data_.
    using LineIdx = std::size_t;
    static constexpr LineIdx kNoLine = ~LineIdx{0};

    /// One outstanding miss; demand packets pile up as targets.
    struct Mshr {
        Addr blockAddr = 0;
        bool prefetchOnly = true;  ///< No demand target yet (pure prefetch).
        std::vector<PacketPtr> targets;
    };

    class CpuSidePort final : public ResponsePort {
    public:
        CpuSidePort(std::string portName, Cache& owner)
            : ResponsePort(std::move(portName)), owner_(owner) {}
        bool recvTimingReq(PacketPtr& pkt) override { return owner_.access(pkt); }
        void recvFunctional(Packet& pkt) override { owner_.functionalAccess(pkt); }
        void recvRespRetry() override { owner_.respBlocked_ = false; owner_.trySendResponses(); }

    private:
        Cache& owner_;
    };

    class MemSidePort final : public RequestPort {
    public:
        MemSidePort(std::string portName, Cache& owner)
            : RequestPort(std::move(portName)), owner_(owner) {}
        bool recvTimingResp(PacketPtr& pkt) override { return owner_.handleFill(pkt); }
        void recvReqRetry() override { owner_.memSideBlocked_ = false; owner_.trySendRequests(); }

    private:
        Cache& owner_;
    };

    Addr blockAlign(Addr a) const { return a & ~static_cast<Addr>(params_.lineSize - 1); }
    bool isUncacheable(Addr a) const;

    // Request path (from CPU side).
    bool access(PacketPtr& pkt);
    void handleHit(PacketPtr pkt, LineIdx line);
    bool handleMiss(PacketPtr& pkt);

    // Functional path: update/read cached data, else forward downstream.
    void functionalAccess(Packet& pkt);

    // Fill path (from memory side).
    bool handleFill(PacketPtr& pkt);
    LineIdx insertBlock(Addr blockAddr, const std::uint8_t* data);
    void satisfyTarget(Packet& target, LineIdx line);

    // Prefetch issue.
    void maybePrefetch(Addr missAddr, RequestorId requestor);

    // Outgoing queues.
    void pushRequest(PacketPtr pkt, Tick readyTick);
    void pushResponse(PacketPtr pkt, Tick readyTick);
    void trySendRequests();
    void trySendResponses();

    /// The valid line holding @p blockAddr, or kNoLine.
    LineIdx findLine(Addr blockAddr) const;
    LineIdx firstWay(Addr blockAddr) const {
        return ((blockAddr / params_.lineSize) % numSets_) * params_.assoc;
    }
    std::uint8_t* lineData(LineIdx line) { return data_.get() + line * params_.lineSize; }

    CacheParams params_;
    unsigned numSets_;
    std::vector<Tag> tags_;                  ///< numSets_ * assoc once filled, else empty.
    std::unique_ptr<std::uint8_t[]> data_;   ///< numSets_ * assoc * lineSize bytes.
    std::uint64_t lruCounter_ = 0;

    std::unordered_map<Addr, Mshr> mshrs_;
    std::unordered_set<std::uint64_t> uncacheableInFlight_;

    CpuSidePort cpuSide_;
    MemSidePort memSide_;

    struct TimedPkt {
        Tick readyTick;
        PacketPtr pkt;
    };
    std::deque<TimedPkt> reqQueue_;   ///< Toward memory (misses, writebacks, uncacheable).
    std::deque<TimedPkt> respQueue_;  ///< Toward the CPU.
    CallbackEvent reqEvent_;
    CallbackEvent respEvent_;
    bool memSideBlocked_ = false;
    bool respBlocked_ = false;
    bool needCpuRetry_ = false;

    StridePrefetcher prefetcher_;
    HwEventBus* missEventBus_ = nullptr;
    unsigned missEventLine_ = 0;

    stats::Scalar& hits_;
    stats::Scalar& misses_;
    stats::Scalar& mshrHits_;       ///< Misses merged into an existing MSHR.
    stats::Scalar& writebacks_;
    stats::Scalar& prefetchesIssued_;
    stats::Scalar& prefetchFills_;
    stats::Scalar& blockedOnMshrs_;
    stats::Scalar& demandAccesses_;
};

}  // namespace g5r
