// Memory packets: the unit of communication between all SoC components.
//
// Follows gem5's request/response packet model. A requester builds a Packet
// with Packet::make, sends it through a timing port, and eventually receives
// the *same* packet back, converted into a response carrying data. Ownership
// moves with the packet: whoever holds the PacketPtr owns it; the port
// protocol only moves the pointer on *accepted* sends, so a rejected send
// leaves the packet with the sender (see port.hh). Releasing a PacketPtr
// returns the packet, payload storage included, to the releasing thread's
// free list, and the next Packet::make on that thread reuses it.
//
// Like gem5's SenderState, a packet carries the state its round trip needs,
// so no component keeps a side table keyed by packet id:
//   * a route stack of crossbar hops (pushed by a crossbar as it accepts a
//     request that needs a response, popped as it accepts the response);
//   * one sender tag, owned by whoever made the packet (the RTL bridge keeps
//     the model's request id there).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/observer.hh"
#include "sim/packet_id.hh"
#include "sim/ticks.hh"

namespace g5r {

using Addr = std::uint64_t;

/// Identifies the original requester of a packet (assigned per port).
using RequestorId = std::uint16_t;
inline constexpr RequestorId kInvalidRequestor = 0xFFFF;

enum class MemCmd : std::uint8_t {
    kReadReq,
    kReadResp,
    kWriteReq,
    kWriteResp,
    kWritebackDirty,  ///< Cache eviction of dirty data; no response expected.
    kPrefetchReq,     ///< Read issued by a prefetcher; fills but does not retire.
};

const char* memCmdName(MemCmd cmd);

class Packet;

/// PacketPtr's deleter: reports a flow-tracked packet's completion to the
/// thread's observer, then parks the packet on the thread's free list.
struct PacketRecycler {
    void operator()(Packet* pkt) const noexcept;
};

using PacketPtr = std::unique_ptr<Packet, PacketRecycler>;

class Packet {
public:
    /// Most crossbars one request may cross before its response returns.
    static constexpr unsigned kMaxHops = 4;

    /// One crossbar crossing: the upstream port the request came in on and
    /// the tick the crossbar accepted it.
    struct Hop {
        Tick acceptTick;
        unsigned upPort;
    };

    /// The one timing-packet factory: a recycled packet when the thread's
    /// free list has one, a new one otherwise. Either way every field reads
    /// as on a freshly constructed packet, with the next packet id.
    static PacketPtr make(MemCmd cmd, Addr addr, unsigned size);

    /// Stack-allocated packets serve functional (zero-time) accesses only.
    Packet(MemCmd cmd, Addr addr, unsigned size)
        : cmd_(cmd), addr_(addr), size_(size), id_(nextId()) {}

    // --- identity ----------------------------------------------------------
    MemCmd cmd() const { return cmd_; }
    Addr addr() const { return addr_; }
    unsigned size() const { return size_; }
    std::uint64_t id() const { return id_; }

    RequestorId requestor() const { return requestor_; }
    void setRequestor(RequestorId r) { requestor_ = r; }

    /// Causal request tag (sim/observer.hh): the logical unit of work this
    /// packet belongs to, or 0 when untagged. Set by the component that
    /// builds the packet; carried, never interpreted, by the memory system.
    /// Deliberately excluded from recorder digests so .g5rec identity is
    /// unaffected by tracing.
    ReqId reqId() const { return reqId_; }
    void setReqId(ReqId id) { reqId_ = id; }

    // --- classification ----------------------------------------------------
    bool isRead() const { return cmd_ == MemCmd::kReadReq || cmd_ == MemCmd::kReadResp ||
                                 cmd_ == MemCmd::kPrefetchReq; }
    bool isWrite() const {
        return cmd_ == MemCmd::kWriteReq || cmd_ == MemCmd::kWriteResp ||
               cmd_ == MemCmd::kWritebackDirty;
    }
    bool isRequest() const { return !isResponse(); }
    bool isResponse() const { return cmd_ == MemCmd::kReadResp || cmd_ == MemCmd::kWriteResp; }
    bool needsResponse() const {
        return cmd_ == MemCmd::kReadReq || cmd_ == MemCmd::kWriteReq ||
               cmd_ == MemCmd::kPrefetchReq;
    }
    bool isEviction() const { return cmd_ == MemCmd::kWritebackDirty; }
    bool isPrefetch() const { return cmd_ == MemCmd::kPrefetchReq; }

    /// Convert this request in place into its response.
    void makeResponse() {
        switch (cmd_) {
        case MemCmd::kReadReq:
        case MemCmd::kPrefetchReq:
            cmd_ = MemCmd::kReadResp;
            break;
        case MemCmd::kWriteReq:
            cmd_ = MemCmd::kWriteResp;
            break;
        default:
            panic("makeResponse() on a non-request packet");
        }
    }

    // --- payload -----------------------------------------------------------
    bool hasData() const { return !data_.empty(); }

    /// Allocate (zeroed) payload storage of size() bytes.
    void allocate() { data_.assign(size_, 0); }

    std::uint8_t* data() {
        if (data_.empty()) allocate();
        return data_.data();
    }
    const std::uint8_t* constData() const {
        simAssert(!data_.empty(), "reading payload of an empty packet");
        return data_.data();
    }

    void setData(const std::uint8_t* src) {
        data_.assign(src, src + size_);
    }

    template <typename T>
    void set(T value) {
        simAssert(sizeof(T) <= size_, "payload type wider than packet");
        if (data_.empty()) allocate();
        std::memcpy(data_.data(), &value, sizeof(T));
    }

    template <typename T>
    T get() const {
        simAssert(sizeof(T) <= size_ && data_.size() >= sizeof(T), "payload read out of range");
        T value;
        std::memcpy(&value, data_.data(), sizeof(T));
        return value;
    }

    // --- misc --------------------------------------------------------------
    /// First tick the packet entered the memory system (set by the sender).
    Tick issueTick() const { return issueTick_; }
    void setIssueTick(Tick t) { issueTick_ = t; }

    /// True once an observer has seen this packet's first accepted timing
    /// send (set by RequestPort::sendTimingReq, cleared if that send was
    /// rejected). Gates the destructor's packetCompleted() report.
    bool flowTracked() const { return flowTracked_; }
    void setFlowTracked(bool tracked) { flowTracked_ = tracked; }

    // --- round-trip state --------------------------------------------------
    /// Crossbar hops this request crossed and its response has yet to
    /// retrace, innermost on top.
    unsigned numHops() const { return numHops_; }
    /// Push a hop; false (and no change) when kMaxHops are already held.
    bool pushHop(unsigned upPort, Tick acceptTick) {
        if (numHops_ == kMaxHops) return false;
        hops_[numHops_++] = Hop{acceptTick, upPort};
        return true;
    }
    const Hop& topHop() const {
        simAssert(numHops_ != 0, "topHop() on a packet with no hop");
        return hops_[numHops_ - 1];
    }
    void popHop() {
        simAssert(numHops_ != 0, "popHop() on a packet with no hop");
        --numHops_;
    }

    /// Opaque to everyone but the packet's maker, who may keep one word of
    /// its own book-keeping here (0 on a new packet).
    std::uint64_t senderTag() const { return senderTag_; }
    void setSenderTag(std::uint64_t tag) { senderTag_ = tag; }

    std::string toString() const;

private:
    // IDs come from the thread's active per-Simulation counter (installed by
    // Simulation::run()), so a run's ID stream is deterministic no matter
    // how many simulations share the process. See sim/packet_id.hh.
    static std::uint64_t nextId() { return nextPacketId(); }

    /// Make a released packet read as Packet(cmd, addr, size), keeping the
    /// payload's storage.
    void reset(MemCmd cmd, Addr addr, unsigned size);

    MemCmd cmd_;
    Addr addr_;
    unsigned size_;
    std::uint64_t id_;
    RequestorId requestor_ = kInvalidRequestor;
    ReqId reqId_ = 0;
    bool flowTracked_ = false;
    Tick issueTick_ = 0;
    unsigned numHops_ = 0;
    std::array<Hop, kMaxHops> hops_{};
    std::uint64_t senderTag_ = 0;
    std::vector<std::uint8_t> data_;
};

inline PacketPtr makeReadPacket(Addr addr, unsigned size) {
    return Packet::make(MemCmd::kReadReq, addr, size);
}

inline PacketPtr makeWritePacket(Addr addr, unsigned size) {
    auto pkt = Packet::make(MemCmd::kWriteReq, addr, size);
    pkt->allocate();
    return pkt;
}

}  // namespace g5r
