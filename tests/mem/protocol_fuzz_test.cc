// Failure injection on the port protocol and the memory system: a flaky
// responder that randomly rejects requests and delays retries, and a flaky
// requester that randomly rejects responses — every transaction must still
// complete exactly once with correct data, through raw ports and through
// the crossbar.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <map>

#include "common/test_requester.hh"
#include "mem/cache/cache.hh"
#include "mem/simple_mem.hh"
#include "mem/xbar.hh"
#include "sim/rng.hh"

namespace g5r {
namespace {

using testing::TestRequester;

/// A memory endpoint that randomly rejects incoming requests (issuing the
/// retry later) and serves reads with address-derived data after a random
/// latency. Exercises every edge of the request/retry handshake. It keeps
/// the response-retry contract of mem/port.hh (after a refused resend
/// inside recvRespRetry it sends nothing else) unless built with
/// @p conforming false, which brings back the breach RespRetryProbe exists
/// to catch: its pending request retry still goes out.
class FlakyMemory : public ClockedObject {
public:
    FlakyMemory(Simulation& sim, std::string name, std::uint64_t seed,
                bool conforming = true)
        : ClockedObject(sim, std::move(name), periodFromGHz(1)),
          port_(this->name() + ".port", *this),
          rng_(seed),
          conforming_(conforming),
          drainEvent_(*this, "drain", [this] { drain(); }) {}

    ResponsePort& port() { return port_; }
    std::uint64_t requestsServed() const { return served_; }

private:
    class Port final : public ResponsePort {
    public:
        Port(std::string n, FlakyMemory& o) : ResponsePort(std::move(n)), owner_(o) {}
        bool recvTimingReq(PacketPtr& pkt) override { return owner_.handleReq(pkt); }
        void recvFunctional(Packet& pkt) override { owner_.access(pkt); }
        void recvRespRetry() override {
            owner_.blocked_ = false;
            owner_.drain(/*onRespRetry=*/true);
        }

    private:
        FlakyMemory& owner_;
    };

    bool handleReq(PacketPtr& pkt) {
        if (rng_.below(3) == 0) {  // Reject one in three.
            pendingRetry_ = true;
            // Retry later, at a random delay.
            if (!drainEvent_.scheduled()) {
                eventQueue().schedule(drainEvent_, clockEdge(1 + rng_.below(5)));
            }
            return false;
        }
        access(*pkt);
        if (!pkt->needsResponse()) {
            pkt.reset();
            return true;
        }
        pkt->makeResponse();
        queue_.push_back(std::move(pkt));
        ++served_;
        if (!drainEvent_.scheduled()) {
            eventQueue().schedule(drainEvent_, clockEdge(1 + rng_.below(8)));
        }
        return true;
    }

    void drain(bool onRespRetry = false) {
        while (!blocked_ && !queue_.empty()) {
            PacketPtr& pkt = queue_.front();
            if (!port_.sendTimingResp(pkt)) {
                blocked_ = true;
                break;
            }
            queue_.pop_front();
        }
        if (blocked_ && onRespRetry && conforming_) {
            // Refused again: send nothing else now. The request retry goes
            // out from the next drain instead.
            if (pendingRetry_ && !drainEvent_.scheduled()) {
                eventQueue().schedule(drainEvent_, clockEdge(1));
            }
            return;
        }
        if (pendingRetry_) {
            pendingRetry_ = false;
            port_.sendReqRetry();
        }
        if (!queue_.empty() && !blocked_ && !drainEvent_.scheduled()) {
            eventQueue().schedule(drainEvent_, clockEdge(1 + rng_.below(8)));
        }
    }

    /// Reads return written data when available, else an address-derived
    /// pattern (so read-only fuzzing can verify payloads statelessly).
    void access(Packet& pkt) {
        if (pkt.isWrite() && pkt.hasData()) {
            std::uint64_t v = 0;
            std::memcpy(&v, pkt.constData(), std::min<unsigned>(8, pkt.size()));
            writes_[pkt.addr()] = v;
        } else if (pkt.isRead()) {
            const auto it = writes_.find(pkt.addr());
            pkt.set<std::uint64_t>(it != writes_.end() ? it->second : pkt.addr() * 31);
        }
    }

    Port port_;
    Rng rng_;
    bool conforming_;
    std::map<Addr, std::uint64_t> writes_;
    CallbackEvent drainEvent_;
    std::deque<PacketPtr> queue_;
    bool pendingRetry_ = false;
    bool blocked_ = false;
    std::uint64_t served_ = 0;
};

/// A pass-through stage between the crossbar and a responder that checks
/// the response-retry contract the crossbar's skipped wakes rely on: once
/// a resend inside recvRespRetry has been refused, the responder sends
/// nothing else (no response, no request retry) before that call returns.
class RespRetryProbe : public SimObject {
public:
    RespRetryProbe(Simulation& sim, std::string name)
        : SimObject(sim, std::move(name)),
          cpuPort_(this->name() + ".cpu_side", *this),
          memPort_(this->name() + ".mem_side", *this) {}

    ResponsePort& cpuSidePort() { return cpuPort_; }
    RequestPort& memSidePort() { return memPort_; }
    int breaches() const { return breaches_; }
    int refusedResends() const { return refusedResends_; }

private:
    class CpuSide final : public ResponsePort {
    public:
        CpuSide(std::string n, RespRetryProbe& o) : ResponsePort(std::move(n)), owner_(o) {}
        bool recvTimingReq(PacketPtr& pkt) override {
            return owner_.memPort_.sendTimingReq(pkt);
        }
        void recvFunctional(Packet& pkt) override { owner_.memPort_.sendFunctional(pkt); }
        void recvRespRetry() override {
            owner_.inRespRetry_ = true;
            owner_.refused_ = false;
            owner_.memPort_.sendRespRetry();
            owner_.inRespRetry_ = false;
        }

    private:
        RespRetryProbe& owner_;
    };

    class MemSide final : public RequestPort {
    public:
        MemSide(std::string n, RespRetryProbe& o) : RequestPort(std::move(n)), owner_(o) {}
        bool recvTimingResp(PacketPtr& pkt) override {
            owner_.checkQuiet();
            const bool accepted = owner_.cpuPort_.sendTimingResp(pkt);
            if (owner_.inRespRetry_ && !accepted) {
                owner_.refused_ = true;
                ++owner_.refusedResends_;
            }
            return accepted;
        }
        void recvReqRetry() override {
            owner_.checkQuiet();
            owner_.cpuPort_.sendReqRetry();
        }

    private:
        RespRetryProbe& owner_;
    };

    void checkQuiet() {
        if (inRespRetry_ && refused_) ++breaches_;
    }

    CpuSide cpuPort_;
    MemSide memPort_;
    bool inRespRetry_ = false;
    bool refused_ = false;
    int breaches_ = 0;
    int refusedResends_ = 0;
};

/// Two requesters, a crossbar and two flaky memories, each behind a
/// RespRetryProbe.
struct FlakyXbarSystem {
    FlakyXbarSystem(std::uint64_t seed, bool conforming)
        : xbar{sim, "xbar", Xbar::Params{}},
          lo{sim, "lo", seed, conforming},
          hi{sim, "hi", seed * 7 + 1, conforming},
          probeLo{sim, "probe_lo"},
          probeHi{sim, "probe_hi"},
          reqA{sim, "a"},
          reqB{sim, "b"} {
        reqA.port().bind(xbar.addCpuSidePort("a"));
        reqB.port().bind(xbar.addCpuSidePort("b"));
        xbar.addMemSidePort("lo", RouteSpec{AddrRange{0, 1 << 20}}).bind(probeLo.cpuSidePort());
        xbar.addMemSidePort("hi", RouteSpec{AddrRange{1 << 20, 2 << 20}})
            .bind(probeHi.cpuSidePort());
        probeLo.memSidePort().bind(lo.port());
        probeHi.memSidePort().bind(hi.port());

        Rng rng{seed ^ 0x9999};
        for (int i = 0; i < kPackets; ++i) {
            const Addr base = rng.below(2) == 0 ? 0 : (1 << 20);
            reqA.issueAt(rng.below(100'000), makeReadPacket(base + 8 * rng.below(512), 8));
            reqB.issueAt(rng.below(100'000), makeReadPacket(base + 8 * rng.below(512), 8));
        }
    }

    int breaches() const { return probeLo.breaches() + probeHi.breaches(); }

    static constexpr int kPackets = 200;
    Simulation sim;
    Xbar xbar;
    FlakyMemory lo;
    FlakyMemory hi;
    RespRetryProbe probeLo;
    RespRetryProbe probeHi;
    TestRequester reqA;
    TestRequester reqB;
};

class ProtocolFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolFuzz, DirectConnectionSurvivesRejection) {
    Simulation sim;
    FlakyMemory mem{sim, "flaky", GetParam()};
    TestRequester req{sim, "req"};
    req.port().bind(mem.port());

    Rng rng{GetParam() ^ 0xABCD};
    constexpr int kPackets = 300;
    for (int i = 0; i < kPackets; ++i) {
        req.issueAt(rng.below(50'000), makeReadPacket(8 * rng.below(1024), 8));
    }
    sim.run();
    ASSERT_EQ(req.numResponses(), kPackets);
    EXPECT_GT(req.retriesSeen(), 0);
    for (const auto& r : req.responses()) {
        EXPECT_EQ(r.pkt->get<std::uint64_t>(), r.pkt->addr() * 31);
    }
}

TEST_P(ProtocolFuzz, ThroughTheCrossbarWithTwoFlakyEndpoints) {
    FlakyXbarSystem sys{GetParam(), /*conforming=*/true};
    sys.sim.run();
    ASSERT_EQ(sys.reqA.numResponses(), FlakyXbarSystem::kPackets);
    ASSERT_EQ(sys.reqB.numResponses(), FlakyXbarSystem::kPackets);
    for (const auto& r : sys.reqA.responses()) {
        EXPECT_EQ(r.pkt->get<std::uint64_t>(), r.pkt->addr() * 31);
    }
    for (const auto& r : sys.reqB.responses()) {
        EXPECT_EQ(r.pkt->get<std::uint64_t>(), r.pkt->addr() * 31);
    }
    // The memories behind the crossbar keep the response-retry contract.
    EXPECT_EQ(sys.breaches(), 0);
}

TEST_P(ProtocolFuzz, CacheOverFlakyMemoryStaysCorrect) {
    // Write-then-read patterns through a cache whose backing memory is
    // flaky: data integrity end to end.
    Simulation sim;
    CacheParams cp;
    cp.sizeBytes = 2 * 1024;
    cp.assoc = 2;
    cp.mshrs = 4;
    Cache cache{sim, "c", cp};
    FlakyMemory mem{sim, "flaky", GetParam()};
    TestRequester req{sim, "req"};
    req.port().bind(cache.cpuSidePort());
    cache.memSidePort().bind(mem.port());

    Rng rng{GetParam() + 5};
    // Writes to 64 distinct lines (more than the cache holds).
    for (int i = 0; i < 64; ++i) {
        auto w = makeWritePacket(64 * i, 8);
        w->set<std::uint64_t>(0xA000 + i);
        req.issueAt(rng.below(20'000), std::move(w));
    }
    sim.run();
    ASSERT_TRUE(req.allResponsesReceived());

    // Read them all back through the same path.
    for (int i = 0; i < 64; ++i) {
        req.issueAt(sim.curTick() + rng.below(20'000), makeReadPacket(64 * i, 8));
    }
    sim.run();
    ASSERT_EQ(req.numResponses(), 128u);
    for (std::size_t i = 64; i < 128; ++i) {
        const auto& r = req.responses()[i];
        EXPECT_EQ(r.pkt->get<std::uint64_t>(), 0xA000 + r.pkt->addr() / 64);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzz, ::testing::Values(11u, 22u, 33u, 44u, 55u));

// The probe is live: over the fuzz seeds the crossbar refuses resends inside
// recvRespRetry, and a memory that still sends its pending request retry
// after such a refusal trips the probe, while the conforming one never does.
TEST(RespRetryProbe, CatchesAResponderThatSendsAfterARefusedResend) {
    for (const bool conforming : {true, false}) {
        int breaches = 0;
        int refused = 0;
        for (const std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
            FlakyXbarSystem sys{seed, conforming};
            sys.sim.run();
            ASSERT_EQ(sys.reqA.numResponses(), FlakyXbarSystem::kPackets);
            ASSERT_EQ(sys.reqB.numResponses(), FlakyXbarSystem::kPackets);
            breaches += sys.breaches();
            refused += sys.probeLo.refusedResends() + sys.probeHi.refusedResends();
        }
        EXPECT_GT(refused, 0) << "conforming=" << conforming;
        if (conforming) {
            EXPECT_EQ(breaches, 0);
        } else {
            EXPECT_GT(breaches, 0);
        }
    }
}

}  // namespace
}  // namespace g5r
