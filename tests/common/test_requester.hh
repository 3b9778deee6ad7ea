// A reusable timing requester for memory-system tests: queues packets,
// respects the retry protocol, records responses with their arrival ticks.
#pragma once

#include <deque>
#include <utility>
#include <vector>

#include "mem/port.hh"
#include "sim/event.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"

namespace g5r::testing {

class TestRequester : public SimObject {
public:
    TestRequester(Simulation& sim, std::string name)
        : SimObject(sim, std::move(name)),
          port_(this->name() + ".port", *this),
          issueEvent_(*this, "issue", [this] { issuePending(); }) {}

    RequestPort& port() { return port_; }

    /// Queue a packet for issue at the given tick (default: now).
    void issueAt(Tick when, PacketPtr pkt) {
        pkt->setIssueTick(when);
        sendQueue_.push_back(std::move(pkt));
        if (!issueEvent_.scheduled()) {
            eventQueue().schedule(issueEvent_, std::max(when, curTick()));
        }
    }

    struct Received {
        Tick tick;
        PacketPtr pkt;
    };
    std::vector<Received>& responses() { return responses_; }
    const std::vector<Received>& responses() const { return responses_; }
    std::size_t numResponses() const { return responses_.size(); }
    bool allResponsesReceived() const { return sendQueue_.empty() && outstanding_ == 0; }
    int retriesSeen() const { return retries_; }

private:
    class Port final : public RequestPort {
    public:
        Port(std::string portName, TestRequester& owner)
            : RequestPort(std::move(portName)), owner_(owner) {}
        bool recvTimingResp(PacketPtr& pkt) override {
            owner_.responses_.push_back({owner_.curTick(), std::move(pkt)});
            --owner_.outstanding_;
            return true;
        }
        void recvReqRetry() override {
            ++owner_.retries_;
            owner_.blocked_ = false;
            owner_.issuePending();
        }

    private:
        TestRequester& owner_;
    };

    void issuePending() {
        while (!blocked_ && !sendQueue_.empty()) {
            PacketPtr& pkt = sendQueue_.front();
            if (pkt->issueTick() > curTick()) {
                eventQueue().reschedule(issueEvent_, pkt->issueTick());
                return;
            }
            const bool needsResp = pkt->needsResponse();
            if (!port_.sendTimingReq(pkt)) {
                blocked_ = true;
                return;
            }
            if (needsResp) ++outstanding_;
            sendQueue_.pop_front();
        }
    }

    Port port_;
    CallbackEvent issueEvent_;
    std::deque<PacketPtr> sendQueue_;
    std::vector<Received> responses_;
    int outstanding_ = 0;
    int retries_ = 0;
    bool blocked_ = false;
};

}  // namespace g5r::testing
