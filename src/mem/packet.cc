#include "mem/packet.hh"

#include <sanitizer/asan_interface.h>

#include <sstream>
#include <vector>

namespace g5r {
namespace {

/// Released packets of one thread, waiting for Packet::make. Each worker
/// thread of a --jobs run recycles its own packets; the list owns what it
/// holds and deletes it at thread exit. Under AddressSanitizer a parked
/// packet is poisoned, so a use after release still reports.
struct FreeList {
    std::vector<Packet*> packets;
    ~FreeList();
};

thread_local FreeList freeList;
/// Cleared as the thread's list is destroyed: a packet released later (by
/// a thread-exit or static destructor) is deleted instead of parked.
thread_local bool freeListAlive = true;

FreeList::~FreeList() {
    freeListAlive = false;
    for (Packet* pkt : packets) {
        ASAN_UNPOISON_MEMORY_REGION(pkt, sizeof(Packet));
        delete pkt;
    }
}

}  // namespace

PacketPtr Packet::make(MemCmd cmd, Addr addr, unsigned size) {
    std::vector<Packet*>& free = freeList.packets;
    if (free.empty()) return PacketPtr(new Packet(cmd, addr, size));
    Packet* pkt = free.back();
    free.pop_back();
    ASAN_UNPOISON_MEMORY_REGION(pkt, sizeof(Packet));
    pkt->reset(cmd, addr, size);
    return PacketPtr(pkt);
}

void Packet::reset(MemCmd cmd, Addr addr, unsigned size) {
    cmd_ = cmd;
    addr_ = addr;
    size_ = size;
    id_ = nextId();
    requestor_ = kInvalidRequestor;
    reqId_ = 0;
    flowTracked_ = false;
    issueTick_ = 0;
    numHops_ = 0;
    senderTag_ = 0;
    data_.clear();
}

void PacketRecycler::operator()(Packet* pkt) const noexcept {
    // Flow-tracked packets close their trace flow when the requester
    // finally releases them. Flag check first: untracked packets (the
    // universe, when observability is off) pay only this one branch.
    if (pkt->flowTracked()) {
        if (SimObserver* obs = threadPacketObserver()) obs->packetCompleted(pkt->id());
    }
    if (!freeListAlive) {
        delete pkt;
        return;
    }
    freeList.packets.push_back(pkt);
    ASAN_POISON_MEMORY_REGION(pkt, sizeof(Packet));
}

const char* memCmdName(MemCmd cmd) {
    switch (cmd) {
    case MemCmd::kReadReq: return "ReadReq";
    case MemCmd::kReadResp: return "ReadResp";
    case MemCmd::kWriteReq: return "WriteReq";
    case MemCmd::kWriteResp: return "WriteResp";
    case MemCmd::kWritebackDirty: return "WritebackDirty";
    case MemCmd::kPrefetchReq: return "PrefetchReq";
    }
    return "Unknown";
}

std::string Packet::toString() const {
    std::ostringstream os;
    os << memCmdName(cmd_) << " [0x" << std::hex << addr_ << std::dec << " +" << size_
       << "] id=" << id_ << " req=" << requestor_;
    return os.str();
}

}  // namespace g5r
