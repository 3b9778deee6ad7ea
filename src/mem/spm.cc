#include "mem/spm.hh"

#include <algorithm>

namespace g5r {
namespace {

constexpr Addr kLineBytes = 64;

Addr lineOf(Addr addr) { return addr & ~(kLineBytes - 1); }

}  // namespace

Spm::Spm(Simulation& sim, std::string objName, const Params& params)
    : ClockedObject(sim, std::move(objName), params.clockPeriod),
      params_(params),
      cpuPort_(name() + ".cpu_side", *this),
      memPort_(name() + ".mem_side", *this),
      sendEvent_(*this, "sendEvent", [this] { trySendResponses(); },
                 EventPriority::kResponse),
      bankBusyUntil_(std::max(1u, params.banks), 0),
      readHits_(stats_.scalar("readHits", "reads served from resident lines")),
      readMisses_(stats_.scalar("readMisses", "reads that waited on line fills")),
      writes_(stats_.scalar("writes", "write accesses (allocate on write)")),
      fills_(stats_.scalar("fills", "line fills fetched from main memory")),
      mshrJoins_(stats_.scalar("mshrJoins", "read misses coalesced onto an in-flight fill")),
      bankConflicts_(stats_.scalar("bankConflicts", "accesses delayed by a busy bank")),
      bytesRead_(stats_.scalar("bytesRead", "bytes returned by reads")),
      bytesWritten_(stats_.scalar("bytesWritten", "bytes consumed by writes")) {
    simAssert(params_.banks > 0 && (params_.banks & (params_.banks - 1)) == 0,
              "SPM bank count must be a power of two");
}

Tick Spm::bankedReadyTick(Addr addr) {
    const unsigned bank = static_cast<unsigned>((addr >> 6) % params_.banks);
    const Tick start = std::max(curTick(), bankBusyUntil_[bank]);
    if (start > curTick()) ++bankConflicts_;
    bankBusyUntil_[bank] = start + clockPeriod();
    return start + cyclesToTicks(params_.accessLatency);
}

void Spm::markPresent(Addr addr, unsigned size) {
    for (Addr line = lineOf(addr); line <= lineOf(addr + size - 1); line += kLineBytes) {
        present_.insert(line);
    }
    if (params_.sizeBytes != 0 && present_.size() * kLineBytes > params_.sizeBytes) {
        panic("SPM overflow: the working set exceeds the configured capacity");
    }
}

bool Spm::handleReq(PacketPtr& pkt) {
    simAssert(params_.range.contains(pkt->addr()), "SPM request out of range");
    if (respQueue_.size() + pendingReads_.size() >= params_.maxPending) {
        needReqRetry_ = true;
        return false;
    }

    if (pkt->isWrite()) {
        // Write-allocate: the data lands in the array and the covered lines
        // become resident. No write-through — a DMA drain copies dirty
        // regions back to main memory explicitly.
        ++writes_;
        bytesWritten_ += pkt->size();
        store_.access(*pkt);
        markPresent(pkt->addr(), pkt->size());
        const Tick ready = bankedReadyTick(pkt->addr());
        if (!pkt->needsResponse()) {
            pkt.reset();  // Writebacks are absorbed silently.
            return true;
        }
        pkt->makeResponse();
        respond(std::move(pkt), ready);
        return true;
    }

    // Read: a hit needs every covered line resident.
    bytesRead_ += pkt->size();
    const Addr firstLine = lineOf(pkt->addr());
    const Addr lastLine = lineOf(pkt->addr() + pkt->size() - 1);
    bool allPresent = true;
    for (Addr line = firstLine; line <= lastLine; line += kLineBytes) {
        if (!linePresent(line)) allPresent = false;
    }
    if (allPresent) {
        ++readHits_;
        store_.access(*pkt);
        pkt->makeResponse();
        respond(std::move(pkt), bankedReadyTick(pkt->addr()));
        return true;
    }

    // Miss: fetch the absent lines downstream, coalescing across waiting
    // reads (one fill per line, MSHR-style).
    ++readMisses_;
    const std::uint64_t key = nextReadKey_++;
    PendingRead& pending = pendingReads_[key];
    pending.pkt = std::move(pkt);
    pending.arrival = curTick();
    for (Addr line = firstLine; line <= lastLine; line += kLineBytes) {
        if (linePresent(line)) continue;
        auto [it, inserted] = mshrs_.try_emplace(line);
        if (inserted) fillQueue_.push_back(line);
        else ++mshrJoins_;  // Coalesced: this read joins the line's in-flight fill.
        it->second.push_back(key);
        ++pending.remainingFills;
    }
    sendFills();
    return true;
}

void Spm::sendFills() {
    while (!fillBlocked_ && fillsInflight_ < params_.fillInflight && !fillQueue_.empty()) {
        PacketPtr fill = makeReadPacket(fillQueue_.front(), kLineBytes);
        // MSHR join semantics for causal tracing: the fill runs on behalf
        // of its *first* waiter; later joiners still get their own spmFill
        // spans from their own pending reads.
        const auto mshrIt = mshrs_.find(fillQueue_.front());
        if (mshrIt != mshrs_.end() && !mshrIt->second.empty()) {
            const auto readIt = pendingReads_.find(mshrIt->second.front());
            if (readIt != pendingReads_.end() && readIt->second.pkt != nullptr) {
                fill->setReqId(readIt->second.pkt->reqId());
            }
        }
        if (!memPort_.sendTimingReq(fill)) {
            fillBlocked_ = true;
            return;
        }
        ++fillsInflight_;
        ++fills_;
        fillQueue_.pop_front();
    }
}

bool Spm::handleFillResp(PacketPtr& pkt) {
    const Addr line = pkt->addr();
    simAssert(fillsInflight_ > 0, "SPM fill response without an outstanding fill");
    --fillsInflight_;

    // A write may have allocated the line while the fill was in flight; its
    // fresh data wins over the (stale) memory copy.
    if (!linePresent(line)) {
        store_.write(line, pkt->constData(), kLineBytes);
        markPresent(line, kLineBytes);
    }
    pkt.reset();

    const auto it = mshrs_.find(line);
    if (it != mshrs_.end()) {
        const std::vector<std::uint64_t> waiters = std::move(it->second);
        mshrs_.erase(it);
        for (const std::uint64_t key : waiters) {
            const auto readIt = pendingReads_.find(key);
            simAssert(readIt != pendingReads_.end(), "SPM fill for an unknown read");
            PendingRead& pending = readIt->second;
            simAssert(pending.remainingFills > 0, "SPM fill count underflow");
            if (--pending.remainingFills == 0) {
                PacketPtr read = std::move(pending.pkt);
                const Tick arrival = pending.arrival;
                pendingReads_.erase(readIt);
                const Tick ready = bankedReadyTick(read->addr());
                if (read->reqId() != 0) {
                    if (SimObserver* obs = threadObserver()) {
                        obs->requestSpan(read->reqId(), ReqStage::kSpmFill, arrival, ready);
                    }
                }
                store_.access(*read);
                read->makeResponse();
                respond(std::move(read), ready);
            }
        }
    }
    maybeSendReqRetry();
    sendFills();
    return true;
}

void Spm::respond(PacketPtr pkt, Tick readyTick) {
    // Sorted insertion: hits and fill completions become ready out of order.
    auto it = std::upper_bound(
        respQueue_.begin(), respQueue_.end(), readyTick,
        [](Tick t, const PendingResp& r) { return t < r.readyTick; });
    respQueue_.insert(it, PendingResp{readyTick, std::move(pkt)});
    if (!sendEvent_.scheduled()) {
        eventQueue().schedule(sendEvent_, std::max(curTick(), respQueue_.front().readyTick));
    } else if (respQueue_.front().readyTick < sendEvent_.when()) {
        eventQueue().reschedule(sendEvent_, std::max(curTick(), respQueue_.front().readyTick));
    }
}

void Spm::trySendResponses() {
    while (!respBlocked_ && !respQueue_.empty() && respQueue_.front().readyTick <= curTick()) {
        PacketPtr& pkt = respQueue_.front().pkt;
        if (!cpuPort_.sendTimingResp(pkt)) {
            respBlocked_ = true;
            return;
        }
        respQueue_.pop_front();
        maybeSendReqRetry();
    }
    if (!respQueue_.empty() && !respBlocked_ && !sendEvent_.scheduled()) {
        eventQueue().schedule(sendEvent_, std::max(curTick(), respQueue_.front().readyTick));
    }
}

void Spm::maybeSendReqRetry() {
    if (needReqRetry_ && respQueue_.size() + pendingReads_.size() < params_.maxPending) {
        needReqRetry_ = false;
        cpuPort_.sendReqRetry();
    }
}

void Spm::handleFunctional(Packet& pkt) {
    // Split at line boundaries: resident bytes live here, absent bytes in
    // main memory. Functional writes allocate, like timing writes.
    const Addr start = pkt.addr();
    Addr cursor = start;
    const Addr end = start + pkt.size();
    while (cursor < end) {
        const Addr lineEnd = lineOf(cursor) + kLineBytes;
        const unsigned chunk = static_cast<unsigned>(std::min<Addr>(end, lineEnd) - cursor);
        if (pkt.isWrite()) {
            store_.write(cursor, pkt.constData() + (cursor - start), chunk);
            markPresent(cursor, chunk);
        } else if (linePresent(lineOf(cursor))) {
            store_.read(cursor, pkt.data() + (cursor - start), chunk);
        } else {
            Packet sub{MemCmd::kReadReq, cursor, chunk};
            memPort_.sendFunctional(sub);
            std::copy_n(sub.constData(), chunk, pkt.data() + (cursor - start));
        }
        cursor += chunk;
    }
}

}  // namespace g5r
