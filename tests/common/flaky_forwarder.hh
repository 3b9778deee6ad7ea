// A pass-through timing-port stage that deterministically (LCG) rejects a
// fraction of first attempts in both directions, exercising the full
// req-retry / resp-retry protocol of everything up- and downstream of it.
// Unlike a flaky *memory*, it stores nothing: splice it between a requester
// and the real memory path and the data stays bit-exact.
#pragma once

#include <cstdint>

#include "mem/port.hh"
#include "sim/event.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"

namespace g5r::testing {

struct FlakyForwarderParams {
    std::uint32_t seed = 1;
    unsigned rejectOneIn = 3;  ///< Reject ~1/N first attempts (0 = never).
    Tick retryDelay = 2'000;   ///< Delay before the unblocking retry.
};

class FlakyForwarder : public SimObject {
public:
    using Params = FlakyForwarderParams;

    FlakyForwarder(Simulation& sim, std::string objName, Params p = {})
        : SimObject(sim, std::move(objName)),
          params_(p),
          lcg_(p.seed != 0 ? p.seed : 1),
          cpuPort_(name() + ".cpu_side", *this),
          memPort_(name() + ".mem_side", *this),
          reqRetryEvent_(*this, "req_retry", [this] { cpuPort_.sendReqRetry(); }),
          respRetryEvent_(*this, "resp_retry", [this] { memPort_.sendRespRetry(); }) {}

    ResponsePort& cpuSidePort() { return cpuPort_; }
    RequestPort& memSidePort() { return memPort_; }

    int reqRejections() const { return reqRejections_; }
    int respRejections() const { return respRejections_; }
    std::uint64_t reqsForwarded() const { return reqsForwarded_; }
    std::uint64_t respsForwarded() const { return respsForwarded_; }

private:
    class CpuSide final : public ResponsePort {
    public:
        CpuSide(std::string n, FlakyForwarder& o) : ResponsePort(std::move(n)), owner_(o) {}
        bool recvTimingReq(PacketPtr& pkt) override { return owner_.handleReq(pkt); }
        void recvFunctional(Packet& pkt) override { owner_.memPort_.sendFunctional(pkt); }
        void recvRespRetry() override { owner_.memPort_.sendRespRetry(); }

    private:
        FlakyForwarder& owner_;
    };

    class MemSide final : public RequestPort {
    public:
        MemSide(std::string n, FlakyForwarder& o) : RequestPort(std::move(n)), owner_(o) {}
        bool recvTimingResp(PacketPtr& pkt) override { return owner_.handleResp(pkt); }
        void recvReqRetry() override { owner_.cpuPort_.sendReqRetry(); }

    private:
        FlakyForwarder& owner_;
    };

    bool flip() {
        lcg_ = lcg_ * 1664525u + 1013904223u;
        return params_.rejectOneIn != 0 && lcg_ % params_.rejectOneIn == 0;
    }

    bool handleReq(PacketPtr& pkt) {
        if (flip()) {
            ++reqRejections_;
            if (!reqRetryEvent_.scheduled()) {
                eventQueue().schedule(reqRetryEvent_, curTick() + params_.retryDelay);
            }
            return false;
        }
        // A downstream rejection needs no bookkeeping: its recvReqRetry is
        // forwarded straight upstream by MemSide.
        if (!memPort_.sendTimingReq(pkt)) return false;
        ++reqsForwarded_;
        return true;
    }

    bool handleResp(PacketPtr& pkt) {
        if (flip()) {
            ++respRejections_;
            if (!respRetryEvent_.scheduled()) {
                eventQueue().schedule(respRetryEvent_, curTick() + params_.retryDelay);
            }
            return false;
        }
        if (!cpuPort_.sendTimingResp(pkt)) return false;
        ++respsForwarded_;
        return true;
    }

    Params params_;
    std::uint32_t lcg_;
    CpuSide cpuPort_;
    MemSide memPort_;
    CallbackEvent reqRetryEvent_;
    CallbackEvent respRetryEvent_;
    int reqRejections_ = 0;
    int respRejections_ = 0;
    std::uint64_t reqsForwarded_ = 0;
    std::uint64_t respsForwarded_ = 0;
};

}  // namespace g5r::testing
