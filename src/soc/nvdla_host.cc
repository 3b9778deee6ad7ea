#include "soc/nvdla_host.hh"

namespace g5r {

NvdlaHost::NvdlaHost(Simulation& sim, std::string objName, const Params& params,
                     std::shared_ptr<const models::NvdlaTrace> trace)
    : ClockedObject(sim, std::move(objName), params.clockPeriod),
      params_(params),
      trace_(std::move(trace)),
      port_(name() + ".port", *this),
      advanceEvent_(*this, "advance", [this] { advance(); }),
      csbWrites_(stats_.scalar("csbWrites", "configuration writes issued")),
      statusPolls_(stats_.scalar("statusPolls", "status-register polls")) {
    // The job's root request ID. Allocated here — not at startup — so the
    // prefetcher (constructed after the host, before run()) can parent its
    // DMA descriptors under the job.
    requestId_ = sim.allocRequestId();
}

void NvdlaHost::startup() {
    // Trace load: data segments into main memory (functional, as the real
    // host would have done before handing off to the accelerator).
    for (const auto& seg : trace_->segments) {
        // Chunk into line-bounded functional writes. Each chunk runs at most
        // to the next 64 B line boundary: the interleaved decode downstream
        // routes a packet by its start address at line granularity, so a
        // line-crossing write from an unaligned seg.addr would land its tail
        // bytes in the wrong channel's backing store.
        std::size_t offset = 0;
        while (offset < seg.bytes.size()) {
            const auto toLineEnd =
                static_cast<std::size_t>(64 - ((seg.addr + offset) % 64));
            const auto chunk = std::min(toLineEnd, seg.bytes.size() - offset);
            Packet pkt{MemCmd::kWriteReq, seg.addr + offset, static_cast<unsigned>(chunk)};
            pkt.setData(seg.bytes.data() + offset);
            port_.sendFunctional(pkt);
            offset += chunk;
        }
    }
    loaded_ = true;
    // The job begins here (even when gated on release()): the prefetch that
    // runs before release is part of this job's end-to-end window.
    if (SimObserver* obs = threadObserver()) {
        obs->requestBegin(requestId_, 0, "nvdlaJob", curTick());
    }
    if (params_.waitForRelease && !released_) return;
    state_ = State::kWriteRegs;
    startTick_ = curTick();
    eventQueue().schedule(advanceEvent_, clockEdge());
}

void NvdlaHost::release() {
    released_ = true;
    if (!loaded_ || state_ != State::kIdle) return;
    state_ = State::kWriteRegs;
    startTick_ = curTick();
    eventQueue().schedule(advanceEvent_, clockEdge());
}

void NvdlaHost::advance() {
    if (awaitingResp_ || pendingSend_ != nullptr) {
        trySend();
        return;
    }
    switch (state_) {
    case State::kIdle:
    case State::kFinished:
        return;
    case State::kWriteRegs: {
        if (nextRegWrite_ >= trace_->regWrites.size()) {
            state_ = State::kPollStatus;
            pollStartTick_ = curTick();
            // The configuration stream is done: [startTick_, now) is the
            // job's host-side programming (hostLoad) stage.
            if (SimObserver* obs = threadObserver()) {
                obs->requestSpan(requestId_, ReqStage::kHostLoad, startTick_, curTick());
            }
            eventQueue().schedule(advanceEvent_,
                                  clockEdge(params_.pollIntervalCycles));
            return;
        }
        const auto& rw = trace_->regWrites[nextRegWrite_];
        auto pkt = makeWritePacket(params_.csbBase + rw.addr, 8);
        pkt->set<std::uint64_t>(rw.data);
        pkt->setReqId(requestId_);
        pendingSend_ = std::move(pkt);
        ++csbWrites_;
        trySend();
        return;
    }
    case State::kPollStatus: {
        pendingSend_ = makeReadPacket(params_.csbBase + models::NvdlaDesign::kStatusReg, 8);
        pendingSend_->setReqId(requestId_);
        ++statusPolls_;
        trySend();
        return;
    }
    case State::kReadChecksum: {
        pendingSend_ =
            makeReadPacket(params_.csbBase + models::NvdlaDesign::kChecksumReg, 8);
        pendingSend_->setReqId(requestId_);
        trySend();
        return;
    }
    }
}

void NvdlaHost::trySend() {
    if (pendingSend_ == nullptr) return;
    if (!port_.sendTimingReq(pendingSend_)) return;  // Retry resends.
    awaitingResp_ = true;
}

bool NvdlaHost::handleResp(PacketPtr& pkt) {
    awaitingResp_ = false;
    switch (state_) {
    case State::kWriteRegs:
        ++nextRegWrite_;
        eventQueue().reschedule(advanceEvent_, clockEdge(1));
        break;
    case State::kPollStatus: {
        const std::uint64_t status = pkt->get<std::uint64_t>();
        if ((status & 2u) != 0) {  // Done bit.
            // The poll window is the job's compute stage: the accelerator
            // owned the work from the last config write to the done bit.
            if (SimObserver* obs = threadObserver()) {
                obs->requestSpan(requestId_, ReqStage::kRtlCompute, pollStartTick_,
                                 curTick());
            }
            state_ = State::kReadChecksum;
            eventQueue().reschedule(advanceEvent_, clockEdge(1));
        } else {
            eventQueue().reschedule(advanceEvent_, clockEdge(params_.pollIntervalCycles));
        }
        break;
    }
    case State::kReadChecksum:
        checksumRead_ = pkt->get<std::uint64_t>();
        state_ = State::kFinished;
        finishTick_ = curTick();
        // Note: the dmaSpm path appends an ofmap drain after this; the drain
        // descriptor is a child of this job, so the blame window stretches
        // past this explicit end to cover it (effective-end rule).
        if (SimObserver* obs = threadObserver()) {
            obs->requestEnd(requestId_, curTick());
        }
        if (doneCallback_) doneCallback_();
        break;
    default:
        break;
    }
    pkt.reset();
    return true;
}

}  // namespace g5r
