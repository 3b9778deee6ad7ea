// Timing ports: the gem5-style point-to-point request/response protocol.
//
// A RequestPort (CPU/requester side) binds to exactly one ResponsePort
// (memory/responder side). Communication is by moving Packet ownership; the
// last owner releases the PacketPtr, which returns the packet to that
// thread's free list for the next Packet::make (mem/packet.hh):
//
//   * sendTimingReq(pkt): the requester offers a request. If the responder
//     accepts (returns true) the unique_ptr is moved from; if it rejects,
//     the pointer is untouched and the responder *must* later call
//     sendReqRetry() exactly once, at which point the requester may retry.
//   * sendTimingResp(pkt): symmetric, responder -> requester, with
//     sendRespRetry() as the unblocking notification.
//   * sendFunctional(pkt): synchronous, zero-time access used for loading
//     program images and debug inspection; always succeeds.
//
// Response-retry contract: on recvRespRetry() a responder's first act is to
// resend the response that was refused; if that resend is refused, the
// callback returns with no other effect. Every responder keeps it by
// resending the head of a ready-ordered queue and inserting new responses
// behind it: SimpleMemory, MultiChannelDram, Cache and Spm (a new entry is
// ready no earlier than now, and the refused head was ready by then),
// Xbar's upstream ports (the layer's parked packet) and RtlObject's device
// ports (outside a send, every unblocked port's queue is empty, so the
// walk over all ports reaches the woken one first). The crossbar relies on
// it: once the first waiter it wakes re-occupies a released response
// layer, it re-queues the rest uncalled, since each would only be refused.
// Requests have no such contract. A requester may take recvReqRetry() as
// a note and resend later (OooCore clears a blocked flag), so a skipped
// wake would strand it, and the crossbar wakes every request-layer waiter.
//
// Ports are plain members of SimObjects; the virtual recv* hooks are
// implemented by small port subclasses that forward into their owner.
#pragma once

#include <string>

#include "mem/packet.hh"
#include "sim/logging.hh"
#include "sim/observer.hh"

namespace g5r {

class ResponsePort;

class RequestPort {
public:
    explicit RequestPort(std::string name) : name_(std::move(name)) {}
    RequestPort(const RequestPort&) = delete;
    RequestPort& operator=(const RequestPort&) = delete;
    virtual ~RequestPort() = default;

    const std::string& name() const { return name_; }
    bool isBound() const { return peer_ != nullptr; }
    void bind(ResponsePort& peer);

    /// Offer a request to the peer. On acceptance @p pkt is moved from;
    /// on rejection it is untouched and a recvReqRetry() will follow.
    bool sendTimingReq(PacketPtr& pkt);

    /// Unblock the peer after this side rejected a response.
    void sendRespRetry();

    /// Synchronous debug/load access; never blocks.
    void sendFunctional(Packet& pkt);

    /// Incoming response. Return false to reject; @p pkt must then be left
    /// untouched and this side must later call sendRespRetry().
    virtual bool recvTimingResp(PacketPtr& pkt) = 0;

    /// The peer can now accept a previously-rejected request.
    virtual void recvReqRetry() = 0;

private:
    friend class ResponsePort;
    std::string name_;
    ResponsePort* peer_ = nullptr;
};

class ResponsePort {
public:
    explicit ResponsePort(std::string name) : name_(std::move(name)) {}
    ResponsePort(const ResponsePort&) = delete;
    ResponsePort& operator=(const ResponsePort&) = delete;
    virtual ~ResponsePort() = default;

    const std::string& name() const { return name_; }
    bool isBound() const { return peer_ != nullptr; }

    /// Offer a response to the peer. On acceptance @p pkt is moved from;
    /// on rejection it is untouched and a recvRespRetry() will follow.
    bool sendTimingResp(PacketPtr& pkt);

    /// Unblock the peer after this side rejected a request.
    void sendReqRetry();

    /// Incoming request. Return false to reject; @p pkt must then be left
    /// untouched and this side must later call sendReqRetry().
    virtual bool recvTimingReq(PacketPtr& pkt) = 0;

    /// Synchronous access for loads/debug; must always complete.
    virtual void recvFunctional(Packet& pkt) = 0;

    /// The peer can now accept a previously-rejected response.
    virtual void recvRespRetry() = 0;

private:
    friend class RequestPort;
    std::string name_;
    RequestPort* peer_ = nullptr;
};

// ---------------------------------------------------------------------------

inline void RequestPort::bind(ResponsePort& peer) {
    simAssert(peer_ == nullptr && peer.peer_ == nullptr, "port double-bind");
    peer_ = &peer;
    peer.peer_ = this;
}

inline bool RequestPort::sendTimingReq(PacketPtr& pkt) {
    simAssert(peer_ != nullptr, "sendTimingReq on unbound port");
    simAssert(pkt != nullptr && pkt->isRequest(), "sendTimingReq needs a request packet");
    SimObserver* obs = threadPacketObserver();
    if (obs == nullptr) return peer_->recvTimingReq(pkt);

    // Capture identity before the call: on acceptance the peer takes
    // ownership and pkt is moved-from. A rejected send leaves the packet
    // untouched (port contract), so un-marking on rejection is safe.
    const std::uint64_t id = pkt->id();
    const std::uint64_t addr = pkt->addr();
    const unsigned size = pkt->size();
    const bool isRead = pkt->isRead();
    const bool tracked = pkt->flowTracked();
    const bool first = !tracked && pkt->needsResponse();
    if (first) pkt->setFlowTracked(true);
    const bool accepted = peer_->recvTimingReq(pkt);
    if (accepted) {
        if (first) {
            obs->packetIssued(id, addr, size, isRead);
        } else if (tracked) {
            obs->packetForwarded(id);
        }
    } else if (first) {
        pkt->setFlowTracked(false);
    }
    return accepted;
}

inline void RequestPort::sendRespRetry() {
    simAssert(peer_ != nullptr, "sendRespRetry on unbound port");
    peer_->recvRespRetry();
}

inline void RequestPort::sendFunctional(Packet& pkt) {
    simAssert(peer_ != nullptr, "sendFunctional on unbound port");
    peer_->recvFunctional(pkt);
}

inline bool ResponsePort::sendTimingResp(PacketPtr& pkt) {
    simAssert(peer_ != nullptr, "sendTimingResp on unbound port");
    simAssert(pkt != nullptr && pkt->isResponse(), "sendTimingResp needs a response packet");
    SimObserver* obs = threadPacketObserver();
    if (obs == nullptr) return peer_->recvTimingResp(pkt);

    const std::uint64_t id = pkt->id();
    const bool tracked = pkt->flowTracked();
    const bool accepted = peer_->recvTimingResp(pkt);
    if (accepted && tracked) obs->packetResponded(id);
    return accepted;
}

inline void ResponsePort::sendReqRetry() {
    simAssert(peer_ != nullptr, "sendReqRetry on unbound port");
    peer_->recvReqRetry();
}

}  // namespace g5r
