#include "mem/dma.hh"

#include <algorithm>

namespace g5r {

DmaEngine::DmaEngine(Simulation& sim, std::string objName, const Params& params)
    : ClockedObject(sim, std::move(objName), params.clockPeriod),
      params_(params),
      memPort_(name() + ".mem_side", *this, /*isMem=*/true),
      spmPort_(name() + ".spm_side", *this, /*isMem=*/false),
      processEvent_(*this, "process", [this] { process(); }),
      descriptors_(stats_.scalar("descriptors", "copy descriptors completed")),
      bytesCopied_(stats_.scalar("bytesCopied", "payload bytes copied")),
      descriptorLatency_(
          stats_.histogram("descriptorLatency", "enqueue-to-complete ticks")),
      inflight_(stats_.histogram("inflight", "outstanding line requests")) {
    simAssert(params_.maxInflight > 0, "DMA needs at least one in-flight request");
    simAssert(params_.lineBytes > 0 && (params_.lineBytes & (params_.lineBytes - 1)) == 0,
              "DMA line size must be a power of two");
}

void DmaEngine::enqueue(Descriptor desc) {
    // Every descriptor is a traceable unit of work. The ID is allocated
    // unconditionally (the counter must advance identically traced or not);
    // the begin report costs one branch when no observer is attached.
    desc.id = sim_.allocRequestId();
    if (SimObserver* obs = threadObserver()) {
        obs->requestBegin(desc.id, desc.parent,
                          desc.dir == Direction::kMemToSpm ? "dmaPrefetch" : "dmaDrain",
                          curTick());
    }
    queue_.push_back(std::move(desc));
    if (!processEvent_.scheduled()) eventQueue().schedule(processEvent_, clockEdge());
}

void DmaEngine::process() {
    if (active_ == nullptr) {
        if (queue_.empty()) return;
        active_ = std::make_unique<Descriptor>(std::move(queue_.front()));
        queue_.pop_front();
        activeStart_ = curTick();
        cursor_ = 0;
        if (active_->bytes == 0) {
            completeActive();
            return;
        }
    }
    issueReads();
}

void DmaEngine::issueReads() {
    const Addr line = params_.lineBytes;
    Lane& src = laneOf(srcIsMem());
    while (cursor_ < active_->bytes &&
           outstandingReads_ + outstandingWrites_ < params_.maxInflight) {
        // Never cross a line boundary on either side of the copy.
        const Addr srcAddr = active_->src + cursor_;
        const Addr dstAddr = active_->dst + cursor_;
        const std::uint64_t chunk =
            std::min({active_->bytes - cursor_, line - srcAddr % line,
                      line - dstAddr % line});
        PacketPtr read = makeReadPacket(srcAddr, static_cast<unsigned>(chunk));
        read->setReqId(active_->id);
        src.queue.push_back(std::move(read));
        cursor_ += chunk;
        ++outstandingReads_;
        inflight_.sampleInt(outstandingReads_ + outstandingWrites_);
    }
    sendQueued(srcIsMem());
}

void DmaEngine::sendQueued(bool isMem) {
    Lane& lane = laneOf(isMem);
    RequestPort& port = isMem ? static_cast<RequestPort&>(memPort_)
                              : static_cast<RequestPort&>(spmPort_);
    while (!lane.blocked && !lane.queue.empty()) {
        PacketPtr& pkt = lane.queue.front();
        if (!port.sendTimingReq(pkt)) {
            lane.blocked = true;
            return;
        }
        lane.queue.pop_front();
    }
}

void DmaEngine::portUnblocked(bool isMem) {
    laneOf(isMem).blocked = false;
    sendQueued(isMem);
}

bool DmaEngine::handleResp(PacketPtr& pkt) {
    simAssert(active_ != nullptr, "DMA response with no active descriptor");
    if (pkt->isRead()) {
        // A source read came back: turn it into a destination write.
        simAssert(outstandingReads_ > 0, "DMA read response underflow");
        --outstandingReads_;
        const Addr dstAddr = active_->dst + (pkt->addr() - active_->src);
        auto write = makeWritePacket(dstAddr, pkt->size());
        write->setData(pkt->constData());
        write->setReqId(active_->id);
        ++outstandingWrites_;
        laneOf(!srcIsMem()).queue.push_back(std::move(write));
        pkt.reset();
        sendQueued(!srcIsMem());
        // A request slot freed up; keep the read stream moving.
        if (cursor_ < active_->bytes && !processEvent_.scheduled()) {
            eventQueue().schedule(processEvent_, clockEdge());
        }
    } else {
        simAssert(outstandingWrites_ > 0, "DMA write response underflow");
        --outstandingWrites_;
        pkt.reset();
        if (cursor_ == active_->bytes && outstandingReads_ == 0 &&
            outstandingWrites_ == 0) {
            completeActive();
        } else if (cursor_ < active_->bytes && !processEvent_.scheduled()) {
            eventQueue().schedule(processEvent_, clockEdge());
        }
    }
    return true;
}

void DmaEngine::completeActive() {
    ++descriptors_;
    bytesCopied_ += static_cast<double>(active_->bytes);
    descriptorLatency_.sample(static_cast<double>(curTick() - activeStart_));
    if (SimObserver* obs = threadObserver()) {
        // A drain descriptor's active window is the job's "drain" stage;
        // a prefetch window is staging work.
        const ReqStage stage = active_->dir == Direction::kSpmToMem ? ReqStage::kDrain
                                                                    : ReqStage::kDmaStage;
        obs->requestSpan(active_->id, stage, activeStart_, curTick());
        obs->requestEnd(active_->id, curTick());
    }
    // Move the callback out first: it may enqueue further descriptors (e.g.
    // a drain chained onto a prefetch) or inspect idle().
    const std::function<void()> done = std::move(active_->onComplete);
    active_.reset();
    if (!queue_.empty() && !processEvent_.scheduled()) {
        eventQueue().schedule(processEvent_, clockEdge());
    }
    if (done) done();
}

}  // namespace g5r
