// Memory packets: the unit of communication between all SoC components.
//
// Follows gem5's request/response packet model. A requester builds a Packet,
// sends it through a timing port, and eventually receives the *same* packet
// back, converted into a response carrying data. Ownership moves with the
// packet: whoever holds the unique_ptr owns it; the port protocol only moves
// the pointer on *accepted* sends, so a rejected send leaves the packet with
// the sender (see port.hh).
#pragma once

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

class Packet {
public:
    Packet(MemCmd cmd, Addr addr, unsigned size)
        : cmd_(cmd), addr_(addr), size_(size), id_(nextId()) {}

    ~Packet() {
        // Flow-tracked packets close their trace flow when the requester
        // finally destroys them. Flag check first: untracked packets (the
        // universe, when observability is off) pay only this one branch.
        if (flowTracked_) {
            if (SimObserver* obs = threadPacketObserver()) obs->packetCompleted(id_);
        }
    }

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

    std::string toString() const;

private:
    // IDs come from the thread's active per-Simulation counter (installed by
    // Simulation::run()), so a run's ID stream is deterministic no matter
    // how many simulations share the process. See sim/packet_id.hh.
    static std::uint64_t nextId() { return nextPacketId(); }

    MemCmd cmd_;
    Addr addr_;
    unsigned size_;
    std::uint64_t id_;
    RequestorId requestor_ = kInvalidRequestor;
    ReqId reqId_ = 0;
    bool flowTracked_ = false;
    Tick issueTick_ = 0;
    std::vector<std::uint8_t> data_;
};

using PacketPtr = std::unique_ptr<Packet>;

inline PacketPtr makeReadPacket(Addr addr, unsigned size) {
    return std::make_unique<Packet>(MemCmd::kReadReq, addr, size);
}

inline PacketPtr makeWritePacket(Addr addr, unsigned size) {
    auto pkt = std::make_unique<Packet>(MemCmd::kWriteReq, addr, size);
    pkt->allocate();
    return pkt;
}

}  // namespace g5r
