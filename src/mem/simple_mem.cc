#include "mem/simple_mem.hh"

namespace g5r {

SimpleMemory::SimpleMemory(Simulation& sim, std::string objName, const Params& params,
                           BackingStore& backing)
    : ClockedObject(sim, std::move(objName), params.clockPeriod),
      params_(params),
      store_(backing),
      port_(name() + ".port", *this),
      sendEvent_(*this, "sendEvent", [this] { trySendResponses(); },
                 EventPriority::kResponse),
      numReads_(stats_.scalar("numReads", "read requests serviced")),
      numWrites_(stats_.scalar("numWrites", "write requests serviced")),
      bytesRead_(stats_.scalar("bytesRead", "bytes returned by reads")),
      bytesWritten_(stats_.scalar("bytesWritten", "bytes consumed by writes")) {}

bool SimpleMemory::handleReq(PacketPtr& pkt) {
    if (respQueue_.size() >= params_.maxPending) {
        needReqRetry_ = true;
        return false;
    }

    if (pkt->isRead()) {
        ++numReads_;
        bytesRead_ += pkt->size();
    } else {
        ++numWrites_;
        bytesWritten_ += pkt->size();
    }

    store_.access(*pkt);

    if (!pkt->needsResponse()) {
        pkt.reset();  // Writebacks are absorbed silently.
        return true;
    }

    // Bandwidth model: serialise packets over the channel.
    const Tick start = std::max(curTick(), nextServiceTick_);
    Tick occupancy = 0;
    if (params_.bytesPerTick > 0.0) {
        occupancy = static_cast<Tick>(static_cast<double>(pkt->size()) / params_.bytesPerTick);
    }
    nextServiceTick_ = start + occupancy;

    pkt->makeResponse();
    const Tick ready = start + params_.latency + occupancy;
    respQueue_.push_back(PendingResp{ready, std::move(pkt)});
    if (!sendEvent_.scheduled()) eventQueue().schedule(sendEvent_, ready);
    return true;
}

void SimpleMemory::trySendResponses() {
    while (!respBlocked_ && !respQueue_.empty() && respQueue_.front().readyTick <= curTick()) {
        PacketPtr& pkt = respQueue_.front().pkt;
        if (!port_.sendTimingResp(pkt)) {
            respBlocked_ = true;
            return;
        }
        respQueue_.pop_front();
        if (needReqRetry_) {
            needReqRetry_ = false;
            port_.sendReqRetry();
        }
    }
    if (!respQueue_.empty() && !respBlocked_ && !sendEvent_.scheduled()) {
        eventQueue().schedule(sendEvent_, std::max(curTick(), respQueue_.front().readyTick));
    }
}

}  // namespace g5r
