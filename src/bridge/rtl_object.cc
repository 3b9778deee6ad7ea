#include "bridge/rtl_object.hh"

#include <cstring>

namespace g5r {

RtlObject::RtlObject(Simulation& sim, std::string objName, const RtlObjectParams& params,
                     std::unique_ptr<RtlModel> model, HwEventBus* eventBus, Tlb* tlb)
    : ClockedObject(sim, std::move(objName), params.clockPeriod),
      params_(params),
      model_(std::move(model)),
      eventBus_(eventBus),
      tlb_(tlb),
      // kRtlTick runs after every same-tick packet delivery and event pulse,
      // so a tick rescheduled by wake() samples exactly the state a
      // free-running tick at the same edge would. Among RTL objects at one
      // edge the order key (below) keeps the woken tick in its slot.
      tickEvent_(*this, "tick", [this] { tick(); }, EventPriority::kRtlTick),
      idleHintOk_(model_ != nullptr && model_->supportsIdleHint()),
      quietHintOk_(model_ != nullptr && model_->supportsQuietHint()),
      statTicks_(stats_.scalar("ticks", "RTL clock ticks delivered to the model")),
      statDevReads_(stats_.scalar("devReads", "device-channel reads")),
      statDevWrites_(stats_.scalar("devWrites", "device-channel writes")),
      statMemReads_(stats_.scalar("memReads", "model memory read requests")),
      statMemWrites_(stats_.scalar("memWrites", "model memory write requests")),
      statBytesRead_(stats_.scalar("bytesRead", "bytes read by the model")),
      statBytesWritten_(stats_.scalar("bytesWritten", "bytes written by the model")),
      statZeroCreditTicks_(stats_.scalar("zeroCreditTicks",
                                         "ticks with no in-flight credits available")),
      statGatedTicks_(stats_.scalar("gatedTicks",
                                    "idle RTL cycles skipped on an idle hint")),
      statIrqEdges_(stats_.scalar("irqEdges", "interrupt line level changes")),
      statOutstandingHist_(stats_.histogram(
          "outstandingHist", "outstanding memory requests per tick")),
      statDevQueueHist_(stats_.histogram(
          "devQueueHist", "device-queue depth histogram (quantiles)")) {
    // Busy fraction of elapsed RTL cycles: ticks actually delivered over
    // ticks delivered plus ticks skipped while quiescence-gated. 0 before
    // the first tick; 1.0 exactly when gating never engaged.
    stats_.formula("dutyCycle", "delivered / (delivered + gated) RTL cycles", [this] {
        const double busy = statTicks_.value();
        const double total = busy + statGatedTicks_.value();
        return total > 0.0 ? busy / total : 0.0;
    });
    simAssert(model_ != nullptr, "RtlObject needs a model");
    // Same-edge order: the registration index, i.e. the attach order.
    // Free-running ticks keep that order anyway (startup() schedules them
    // in it and each reschedules itself from its own tick); the key makes a
    // tick rescheduled by wake() take the same slot instead of the one its
    // fresh sequence number would give it, after peers that never stopped.
    // The same index names the bridge as the requestor of its packets.
    const std::size_t index = sim.objects().size();
    tickEvent_.setOrderKey(index);
    simAssert(index < kInvalidRequestor, "too many objects for a requestor id");
    requestorId_ = static_cast<RequestorId>(index);
    for (unsigned i = 0; i < kNumCpuSidePorts; ++i) {
        cpuPorts_[i] = std::make_unique<CpuSidePort>(
            name() + ".cpu_side" + std::to_string(i), *this, i);
    }
    for (unsigned i = 0; i < kNumMemSidePorts; ++i) {
        memPorts_[i] = std::make_unique<MemSidePort>(
            name() + ".mem_side" + std::to_string(i), *this, i);
    }
    if (eventBus_ != nullptr) {
        eventBus_->addWakeCallback([this] { wake(); });
    }
}

RtlObject::~RtlObject() = default;

ResponsePort& RtlObject::cpuSidePort(unsigned idx) {
    simAssert(idx < kNumCpuSidePorts, "cpu-side port index out of range");
    return *cpuPorts_[idx];
}

RequestPort& RtlObject::memSidePort(unsigned idx) {
    simAssert(idx < kNumMemSidePorts, "mem-side port index out of range");
    return *memPorts_[idx];
}

void RtlObject::startup() {
    model_->reset();
    eventQueue().schedule(tickEvent_, clockEdge());
}

// ------------------------------------------------------------ device side --

bool RtlObject::recvDevReq(unsigned portIdx, PacketPtr& pkt) {
    wake();
    if (devQueue_.size() >= params_.devQueueDepth) {
        needDevRetry_[portIdx] = true;
        return false;
    }
    devQueue_.push_back(DevReq{portIdx, std::move(pkt)});
    return true;
}

void RtlObject::devFunctional(Packet&) {
    // Device registers have no functional backing store outside the model;
    // functional probes of RTL state are not supported (as in the paper,
    // where the RTL model is only reachable through its ports).
}

void RtlObject::sendDevResponses() {
    for (unsigned i = 0; i < kNumCpuSidePorts; ++i) {
        auto& queue = respQueues_[i];
        while (!respBlocked_[i] && !queue.empty()) {
            PacketPtr& pkt = queue.front();
            if (!cpuPorts_[i]->sendTimingResp(pkt)) {
                respBlocked_[i] = true;
                break;
            }
            queue.pop_front();
        }
    }
}

// Offer retries to ports that were refused, as soon as (and only while) the
// device queue has room. Retries used to be coupled to a *response* going
// out on the same port, which starved a port whose refused request never got
// a response-producing predecessor: queue space freed at accept time in
// tick(), but the retry waiting on port 1 never fired if the draining
// traffic belonged to port 0. sendReqRetry() may synchronously re-enter
// recvDevReq and refill the queue, hence the capacity re-check per port.
void RtlObject::sendDevRetries() {
    for (unsigned i = 0; i < kNumCpuSidePorts; ++i) {
        if (devQueue_.size() >= params_.devQueueDepth) return;
        if (needDevRetry_[i]) {
            needDevRetry_[i] = false;
            cpuPorts_[i]->sendReqRetry();
        }
    }
}

// ------------------------------------------------------------ memory side --

bool RtlObject::recvMemResp(PacketPtr& pkt) {
    wake();
    simAssert(pkt->requestor() == requestorId_, "memory response the bridge did not issue");
    ModelResp resp;
    resp.id = pkt->senderTag();
    resp.data.fill(0);
    if (pkt->cmd() == MemCmd::kReadResp) {
        std::memcpy(resp.data.data(), pkt->constData(),
                    std::min<std::size_t>(pkt->size(), resp.data.size()));
    }
    modelRespQueue_.push_back(resp);
    simAssert(outstanding_ > 0, "response underflow");
    --outstanding_;
    pkt.reset();
    return true;
}

void RtlObject::sendMemRequests() {
    for (unsigned i = 0; i < kNumMemSidePorts; ++i) {
        auto& queue = memSendQueues_[i];
        while (!memBlocked_[i] && !queue.empty()) {
            PacketPtr& pkt = queue.front();
            if (!memPorts_[i]->sendTimingReq(pkt)) {
                memBlocked_[i] = true;
                break;
            }
            queue.pop_front();
        }
    }
}

void RtlObject::issueModelRequests(const G5rRtlOutput& out) {
    const unsigned count = std::min<unsigned>(out.mem_req_count, G5R_RTL_MAX_MEM_REQ);
    for (unsigned i = 0; i < count; ++i) {
        const G5rRtlMemReq& req = out.mem_req[i];
        simAssert(outstanding_ < params_.maxInflight,
                  "model exceeded its in-flight credit grant");
        const unsigned size = std::min<unsigned>(req.size, G5R_RTL_MEM_DATA_BYTES);
        Addr addr = req.addr;
        if (params_.translate && tlb_ != nullptr) addr = tlb_->translate(addr);

        PacketPtr pkt;
        if (req.write != 0) {
            pkt = makeWritePacket(addr, size);
            std::memcpy(pkt->data(), req.data, size);
            ++statMemWrites_;
            statBytesWritten_ += size;
        } else {
            pkt = makeReadPacket(addr, size);
            ++statMemReads_;
            statBytesRead_ += size;
        }
        pkt->setIssueTick(curTick());
        pkt->setReqId(curReq_);
        pkt->setRequestor(requestorId_);
        pkt->setSenderTag(req.id);

        // Route port-1 traffic to port 0 when SRAMIF is not separately bound
        // (the paper's configuration sends both interfaces to main memory).
        unsigned portIdx = req.port < kNumMemSidePorts ? req.port : 0;
        if (!memPorts_[portIdx]->isBound()) portIdx = 0;

        ++outstanding_;
        memSendQueues_[portIdx].push_back(std::move(pkt));
    }
    sendMemRequests();
}

// ------------------------------------------------------------------- tick --

void RtlObject::tick() {
    G5rRtlInput in{};
    G5rRtlOutput out{};
    in.skipped_cycles = skippedCycles_;
    skippedCycles_ = 0;

    // Present the oldest queued device beat (one outstanding device read at
    // a time, as befits a low-bandwidth config interface).
    devPresented_ = false;
    if (!devReadPending_.has_value() && !devQueue_.empty()) {
        const DevReq& dev = devQueue_.front();
        in.dev_valid = 1;
        in.dev_write = dev.pkt->isWrite() ? 1 : 0;
        in.dev_addr = dev.pkt->addr();
        if (dev.pkt->isWrite()) {
            std::uint64_t wdata = 0;
            std::memcpy(&wdata, dev.pkt->constData(),
                        std::min<std::size_t>(dev.pkt->size(), sizeof(wdata)));
            in.dev_wdata = wdata;
        }
        devPresented_ = true;
    }

    // Deliver at most one memory response per RTL tick.
    if (!modelRespQueue_.empty()) {
        const ModelResp& resp = modelRespQueue_.front();
        in.mem_resp_valid = 1;
        in.mem_resp_id = resp.id;
        std::memcpy(in.mem_resp_data, resp.data.data(), resp.data.size());
    }

    const unsigned creditsLeft =
        params_.maxInflight > outstanding_ ? params_.maxInflight - outstanding_ : 0;
    in.mem_req_credits = std::min<unsigned>(creditsLeft, G5R_RTL_MAX_MEM_REQ);
    if (creditsLeft == 0) ++statZeroCreditTicks_;

    // An empty bus holds all zeros, which `in{}` already wrote.
    if (eventBus_ != nullptr && eventBus_->hasPending()) {
        const auto pulses = eventBus_->drain();
        std::memcpy(in.events, pulses.data(), sizeof(in.events));
    }

    model_->tick(in, out);
    ++statTicks_;
    statOutstandingHist_.sampleInt(outstanding_);
    statDevQueueHist_.sampleInt(devQueue_.size());

    // Device handshake resolution. Accepting a beat frees queue space, so
    // refused ports get their retry here (see sendDevRetries).
    if (devPresented_ && out.dev_ready != 0) {
        DevReq dev = std::move(devQueue_.front());
        devQueue_.pop_front();
        if (dev.pkt->isWrite()) {
            ++statDevWrites_;
            if (dev.pkt->reqId() != 0) curReq_ = dev.pkt->reqId();
            if (dev.pkt->needsResponse()) {
                dev.pkt->makeResponse();
                respQueues_[dev.port].push_back(std::move(dev.pkt));
            }
        } else {
            ++statDevReads_;
            devReadPending_ = std::move(dev);
        }
    }
    if (out.dev_resp_valid != 0 && devReadPending_.has_value()) {
        DevReq dev = std::move(*devReadPending_);
        devReadPending_.reset();
        dev.pkt->set<std::uint64_t>(out.dev_rdata);
        dev.pkt->makeResponse();
        respQueues_[dev.port].push_back(std::move(dev.pkt));
    }
    if (in.mem_resp_valid != 0) modelRespQueue_.pop_front();

    sendDevRetries();
    issueModelRequests(out);
    sendDevResponses();

    const bool irqNow = out.irq != 0;
    if (irqNow != irqLevel_) {
        irqLevel_ = irqNow;
        ++statIrqEdges_;
        if (irqCallback_) irqCallback_(irqNow);
    }
    if (out.done != 0 && !done_) {
        done_ = true;
        if (params_.exitOnDone) sim_.exitSimLoop(name() + ": model done");
    }

    if (canGate(out)) {
        gated_ = true;
        quietGap_ = !(idleHintOk_ && out.idle_hint != 0);
        gatedAtEdge_ = clockEdge(1);
    } else {
        eventQueue().schedule(tickEvent_, clockEdge(1));
    }
}

// The tick event may be descheduled only when skipping cycles is provably
// invisible: the model promises that idle cycles leave its state alone
// (idle_hint, from ABI v2 on) or at least its outputs (quiet_hint, v3), and
// the bridge holds nothing that would feed the model on a future tick.
// Outstanding memory requests do not count: their responses wake it. Nor
// do queued sends (memory requests, device responses): a send stays queued
// only while its port is blocked, the tick's send calls are then no-ops,
// and the port's retry sends it without a tick. Every input source that
// could end the idle stretch has a wake hook: recvDevReq, recvMemResp, and
// the event bus's empty->non-empty callback. Spurious wakes are harmless
// (an ungated bridge ticks every cycle anyway); only a missed wake could
// diverge.
bool RtlObject::canGate(const G5rRtlOutput& out) const {
    if (!params_.gateIdleTicks) return false;
    if (!(idleHintOk_ && out.idle_hint != 0) && !(quietHintOk_ && out.quiet_hint != 0)) {
        return false;
    }
    if (!devQueue_.empty() || devReadPending_.has_value()) return false;
    if (!modelRespQueue_.empty()) return false;
    return eventBus_ == nullptr || !eventBus_->hasPending();
}

// Never before the edge the descheduled tick would have run at; at the next
// edge not yet passed otherwise. kRtlTick priority puts the tick after this
// wake's cause, so it samples the delivered input, and the order key puts it
// among its same-edge peers where an ungated tick would be. One asymmetry:
// when the dispatch position has already moved past this edge's tick slot
// (an ungated twin's tick at this very edge would have fired by now), a
// stimulus injected afterwards (an embedder poking the bus between run()
// slices, or issuing at an edge the run bound already closed) must be
// sampled at the *next* edge instead.
Tick RtlObject::nextOpenEdge() {
    const Tick edge = clockEdge();
    return eventQueue().hasPassed(edge, static_cast<int>(EventPriority::kRtlTick),
                                  tickEvent_.orderKey())
               ? edge + clockPeriod()
               : edge;
}

// The cycles of [gatedAtEdge_, edge) were skipped. On an idle_hint the
// model never sees them (gatedTicks). On a quiet_hint the model gets them
// in its next tick, so they count exactly as the delivered ticks of an
// ungated run would have: in that stretch the outstanding count holds (a
// response ends the gap before it decrements), the device queue is empty
// (a request ends it before it is queued), and so is the credit grant.
void RtlObject::skipTo(Tick edge) {
    const std::uint64_t cycles = (edge - gatedAtEdge_) / clockPeriod();
    gatedAtEdge_ = edge;
    if (quietHintOk_) skippedCycles_ += cycles;
    if (!quietGap_) {
        statGatedTicks_ += static_cast<double>(cycles);
        return;
    }
    statTicks_ += static_cast<double>(cycles);
    if (outstanding_ >= params_.maxInflight) statZeroCreditTicks_ += static_cast<double>(cycles);
    statOutstandingHist_.sampleInt(outstanding_, cycles);
    statDevQueueHist_.sampleInt(devQueue_.size(), cycles);
}

void RtlObject::wake() {
    if (!gated_) return;
    gated_ = false;
    const Tick edge = std::max(nextOpenEdge(), gatedAtEdge_);
    skipTo(edge);
    eventQueue().schedule(tickEvent_, edge);
}

// An idle gap's gatedTicks are counted when it ends, as they always were;
// a quiet gap's delivered-tick stats must read as in an ungated run.
void RtlObject::settleStats() {
    if (!gated_ || !quietGap_) return;
    const Tick edge = nextOpenEdge();
    if (edge > gatedAtEdge_) skipTo(edge);
}

}  // namespace g5r
