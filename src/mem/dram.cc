#include "mem/dram.hh"

#include <algorithm>

namespace g5r {

// ---------------------------------------------------------------- channel --

DramChannel::DramChannel(Simulation& sim, std::string objName,
                         const DramChannelParams& params, MultiChannelDram& parent,
                         unsigned channelId)
    : ClockedObject(sim, std::move(objName), parent.clockPeriod()),
      params_(params),
      parent_(parent),
      channelId_(channelId),
      totalBanks_(params.banks * params.ranks),
      linesPerRow_(params.rowBufferBytes / 64),
      banks_(totalBanks_),
      nextReqEvent_(*this, "nextReq", [this] { processNextRequest(); }),
      rowHits_(stats_.scalar("rowHits", "column accesses hitting an open row")),
      rowMisses_(stats_.scalar("rowMisses", "column accesses needing activate")),
      readBursts_(stats_.scalar("readBursts", "read bursts serviced")),
      writeBursts_(stats_.scalar("writeBursts", "write bursts serviced")),
      busTurnarounds_(stats_.scalar("busTurnarounds", "read<->write bus switches")),
      bytesTransferred_(stats_.scalar("bytesTransferred", "data-bus bytes moved")),
      starvationBreaks_(stats_.scalar("starvationBreaks",
                                      "FR-FCFS picks forced to the oldest request")),
      readQueueLatency_(stats_.histogram("readLatency", "enqueue-to-data ticks")) {
    simAssert(linesPerRow_ > 0, "row buffer smaller than a cache line");
}

void DramChannel::decode(Addr addr, unsigned& bank, Addr& row) const {
    const Addr lineIdx = (addr >> 6) / parent_.decodeChannels();
    bank = static_cast<unsigned>((lineIdx / linesPerRow_) % totalBanks_);
    row = lineIdx / (linesPerRow_ * totalBanks_);
}

bool DramChannel::canAccept(const Packet& pkt) const {
    if (pkt.isWrite()) return writeQueue_.size() < params_.writeQueueSize;
    return readQueue_.size() < params_.readQueueSize;
}

void DramChannel::enqueue(PacketPtr pkt) {
    unsigned bank = 0;
    Addr row = 0;
    decode(pkt->addr(), bank, row);

    if (pkt->isWrite()) {
        const ReqId reqId = pkt->reqId();
        // Commit data immediately; the queue entry models timing only. Reads
        // enqueued later observe the committed data (conservative forwarding).
        parent_.store().access(*pkt);
        if (pkt->needsResponse()) {
            pkt->makeResponse();
            parent_.respond(std::move(pkt), curTick() + params_.frontendLatency);
        }
        // The write is acked up front, so its observable dramService window
        // is just the frontend pipeline; the queued burst happens later,
        // off the request's critical path.
        if (reqId != 0) {
            if (SimObserver* obs = threadObserver()) {
                obs->requestSpan(reqId, ReqStage::kDramService, curTick(),
                                 curTick() + params_.frontendLatency);
            }
        }
        writeQueue_.push_back(QueuedReq{nullptr, row, bank, curTick(), reqId});
    } else {
        const ReqId reqId = pkt->reqId();
        readQueue_.push_back(QueuedReq{std::move(pkt), row, bank, curTick(), reqId});
    }

    if (!nextReqEvent_.scheduled()) {
        eventQueue().schedule(nextReqEvent_, std::max(curTick(), busFreeTick_));
    }
}

std::size_t DramChannel::pickFrFcfs(const std::deque<QueuedReq>& queue,
                                    unsigned& headBypasses) {
    const auto pick = [&]() -> std::size_t {
        // Starvation cap: once the head has been bypassed maxStarvation times
        // in a row, age wins over row locality.
        if (headBypasses >= params_.maxStarvation) {
            ++starvationBreaks_;
            return 0;
        }
        // First-ready: oldest request whose bank has the right row open.
        for (std::size_t i = 0; i < queue.size(); ++i) {
            const Bank& bank = banks_[queue[i].bank];
            if (bank.openRow == queue[i].row && bank.actReadyTick <= curTick()) return i;
        }
        // Second chance: any open-row match even if activation is still pending.
        for (std::size_t i = 0; i < queue.size(); ++i) {
            if (banks_[queue[i].bank].openRow == queue[i].row) return i;
        }
        return 0;  // FCFS fallback: the oldest request.
    };
    const std::size_t idx = pick();
    headBypasses = (idx == 0) ? 0 : headBypasses + 1;
    return idx;
}

Tick DramChannel::service(QueuedReq& req) {
    Bank& bank = banks_[req.bank];
    // Commands for a queued request can issue as soon as the request exists;
    // only the data burst serialises on the bus. This models the command-
    // lookahead a real controller performs while the bus is busy.
    const Tick available = req.enqueueTick;

    if (bank.openRow != req.row) {
        ++rowMisses_;
        // Precharge cannot start before the bank's previous burst completes.
        const Tick start = std::max(available, bank.lastBurstEnd);
        const Tick prechargeDone = (bank.openRow == Bank::kNoRow) ? start : start + params_.tRP;
        bank.actReadyTick = prechargeDone + params_.tRCD;
        bank.openRow = req.row;
    } else {
        ++rowHits_;
    }

    // Column commands pipeline: CAS latency overlaps with earlier bursts, so
    // a stream of row hits is limited only by the data bus (tBURST).
    const Tick colCmd = std::max(available, bank.actReadyTick);
    Tick burstStart = std::max(colCmd + params_.tCL, busFreeTick_);
    const bool isWrite = (req.pkt == nullptr);
    if (isWrite != lastWasWrite_) {
        burstStart += params_.tSwitch;
        ++busTurnarounds_;
        lastWasWrite_ = isWrite;
    }

    busFreeTick_ = burstStart + params_.tBURST;
    bank.lastBurstEnd = busFreeTick_;
    bytesTransferred_ += 64;
    return busFreeTick_;
}

void DramChannel::processNextRequest() {
    if (readQueue_.empty() && writeQueue_.empty()) return;

    // Mode selection: drain writes in bursts, otherwise serve reads; serve
    // writes opportunistically when no reads are waiting.
    const auto writeFill = static_cast<double>(writeQueue_.size());
    const double wqSize = params_.writeQueueSize;
    if (drainingWrites_) {
        const bool drainedEnough = writeFill <= params_.writeLowWatermark * wqSize &&
                                   writesThisDrain_ >= params_.minWritesPerSwitch;
        if (writeQueue_.empty() || (drainedEnough && !readQueue_.empty())) {
            drainingWrites_ = false;
            writesThisDrain_ = 0;
        }
    } else if (writeFill >= params_.writeHighWatermark * wqSize) {
        drainingWrites_ = true;
        writesThisDrain_ = 0;
    }

    const bool doWrite = (drainingWrites_ && !writeQueue_.empty()) ||
                         (readQueue_.empty() && !writeQueue_.empty());
    auto& queue = doWrite ? writeQueue_ : readQueue_;

    const std::size_t idx =
        pickFrFcfs(queue, doWrite ? writeHeadBypasses_ : readHeadBypasses_);
    QueuedReq req = std::move(queue[idx]);
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(idx));

    const Tick done = service(req);
    if (doWrite) {
        ++writesThisDrain_;
        ++writeBursts_;
    } else {
        ++readBursts_;
        readQueueLatency_.sampleInt(done - req.enqueueTick);
        // The read's dramService window runs from arrival in the channel
        // queue to the tick its response leaves the controller pipeline.
        if (req.reqId != 0) {
            if (SimObserver* obs = threadObserver()) {
                obs->requestSpan(req.reqId, ReqStage::kDramService, req.enqueueTick,
                                 done + params_.frontendLatency + params_.backendLatency);
            }
        }
        parent_.store().access(*req.pkt);
        req.pkt->makeResponse();
        parent_.respond(std::move(req.pkt),
                        done + params_.frontendLatency + params_.backendLatency);
    }

    // The retry below can re-enter enqueue() and schedule the event already.
    parent_.channelSpaceFreed(channelId_, doWrite);
    if ((!readQueue_.empty() || !writeQueue_.empty()) && !nextReqEvent_.scheduled()) {
        eventQueue().schedule(nextReqEvent_, std::max(curTick(), busFreeTick_));
    }
}

// ------------------------------------------------------------------ front --

MultiChannelDram::MultiChannelDram(Simulation& sim, std::string objName,
                                   const Params& params, BackingStore& backing)
    : ClockedObject(sim, std::move(objName), params.clockPeriod),
      params_(params),
      store_(backing),
      port_(name() + ".port", *this),
      sendEvent_(*this, "sendEvent", [this] { trySendResponses(); },
                 EventPriority::kResponse),
      numReads_(stats_.scalar("numReads", "read requests accepted")),
      numWrites_(stats_.scalar("numWrites", "write requests accepted")),
      bytesRead_(stats_.scalar("bytesRead", "bytes returned by reads")),
      bytesWritten_(stats_.scalar("bytesWritten", "bytes consumed by writes")),
      rejectedRequests_(stats_.scalar("rejectedRequests", "requests back-pressured")) {
    simAssert(params_.channels > 0, "DRAM needs at least one channel");
    channels_.reserve(params_.channels);
    for (unsigned i = 0; i < params_.channels; ++i) {
        channels_.push_back(std::make_unique<DramChannel>(
            sim, name() + ".ch" + std::to_string(i), params_.channel, *this, i));
    }
}

double MultiChannelDram::peakBandwidth() const {
    const double burstSeconds = ticksToSeconds(params_.channel.tBURST);
    return params_.channels * 64.0 / burstSeconds;
}

unsigned MultiChannelDram::channelOf(Addr addr) const {
    return static_cast<unsigned>((addr >> 6) % params_.channels);
}

bool MultiChannelDram::handleReq(PacketPtr& pkt) {
    simAssert(params_.range.contains(pkt->addr()), "DRAM request out of range");
    const unsigned channelId = channelOf(pkt->addr());
    DramChannel& channel = *channels_[channelId];
    if (!channel.canAccept(*pkt)) {
        needReqRetry_ = true;
        retryChannel_ = channelId;
        retryIsWrite_ = pkt->isWrite();
        ++rejectedRequests_;
        return false;
    }
    if (pkt->isRead()) {
        ++numReads_;
        bytesRead_ += pkt->size();
    } else {
        ++numWrites_;
        bytesWritten_ += pkt->size();
    }
    channel.enqueue(std::move(pkt));
    return true;
}

void MultiChannelDram::respond(PacketPtr pkt, Tick readyTick) {
    // Insert keeping the queue sorted by ready time (channels finish
    // out of order relative to each other).
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

void MultiChannelDram::channelSpaceFreed(unsigned channelId, bool wasWrite) {
    // Retry only when the queue that rejected the packet is the one that
    // freed: a retry on any other channel's progress would bounce straight
    // back off the still-full queue (and repeat every service — a storm).
    if (needReqRetry_ && channelId == retryChannel_ && wasWrite == retryIsWrite_) {
        needReqRetry_ = false;
        port_.sendReqRetry();
    }
}

void MultiChannelDram::trySendResponses() {
    while (!respBlocked_ && !respQueue_.empty() && respQueue_.front().readyTick <= curTick()) {
        PacketPtr& pkt = respQueue_.front().pkt;
        if (!port_.sendTimingResp(pkt)) {
            respBlocked_ = true;
            return;
        }
        respQueue_.pop_front();
    }
    if (!respQueue_.empty() && !respBlocked_ && !sendEvent_.scheduled()) {
        eventQueue().schedule(sendEvent_, std::max(curTick(), respQueue_.front().readyTick));
    }
}

}  // namespace g5r
