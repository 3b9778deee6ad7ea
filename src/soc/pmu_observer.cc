#include "soc/pmu_observer.hh"

#include "sim/hw_events.hh"

namespace g5r {

namespace {

/// PMU register offsets fetched per interrupt, in order.
constexpr std::array<std::uint64_t, PmuObserver::kNumReads> kReadOffsets = {
    models::PmuDesign::kCounterBase + 8 * 0,  // Commit lane 0.
    models::PmuDesign::kCounterBase + 8 * 1,
    models::PmuDesign::kCounterBase + 8 * 2,
    models::PmuDesign::kCounterBase + 8 * 3,
    models::PmuDesign::kCounterBase + 8 * 4,  // L1D miss line.
    models::PmuDesign::kCounterBase + 8 * 5,  // Cycle line.
};

}  // namespace

PmuObserver::PmuObserver(Simulation& sim, std::string objName, const Params& params,
                         std::function<std::array<double, 3>()> gem5Probe)
    : ClockedObject(sim, std::move(objName), params.clockPeriod),
      params_(params),
      port_(name() + ".port", *this),
      gem5Probe_(std::move(gem5Probe)),
      kickEvent_(*this, "kick", [this] { issueNext(); }),
      interrupts_(stats_.scalar("interrupts", "PMU interrupts observed")),
      readouts_(stats_.scalar("readouts", "complete counter readouts")) {
    scriptRequest_ = sim.allocRequestId();
}

std::vector<PmuObserver::RegWrite> PmuObserver::fig5Config(std::uint64_t intervalCycles) {
    using models::PmuDesign;
    const std::uint64_t enableMask = 0b1111 |                     // Commit lanes.
                                     (1u << HwEventBus::kL1dMiss) |
                                     (1u << HwEventBus::kCycle);
    return {
        {PmuDesign::kEnableReg, enableMask},
        {PmuDesign::kThresholdSelReg, HwEventBus::kCycle},
        {PmuDesign::kThresholdReg, intervalCycles},
    };
}

void PmuObserver::startup() {
    if (SimObserver* obs = threadObserver()) {
        obs->requestBegin(scriptRequest_, 0, "pmuScript", curTick());
    }
    if (!configWrites_.empty()) {
        configuring_ = true;
        nextConfig_ = 0;
        eventQueue().schedule(kickEvent_, clockEdge(1));
    }
}

void PmuObserver::onIrq(bool level) {
    if (!level) return;
    ++interrupts_;
    if (readoutActive_ || configuring_) {
        irqPendingDuringReadout_ = true;
        return;
    }
    startReadout();
}

void PmuObserver::startReadout() {
    readoutActive_ = true;
    nextRead_ = 0;
    current_ = Sample{};
    current_.irqTick = curTick();
    // Each interrupt readout is its own child request (allocated whether or
    // not anyone listens, to keep the ID stream config-deterministic).
    readoutRequest_ = sim_.allocRequestId();
    if (SimObserver* obs = threadObserver()) {
        obs->requestBegin(readoutRequest_, scriptRequest_, "pmuReadout", curTick());
    }
    // Snapshot the simulator's own statistics at the interrupt instant —
    // the "gem5 statistics" curve of Fig. 5.
    if (gem5Probe_) {
        const auto probe = gem5Probe_();
        current_.gem5Insts = probe[0];
        current_.gem5Cycles = probe[1];
        current_.gem5L1dMisses = probe[2];
    }
    if (!kickEvent_.scheduled()) eventQueue().schedule(kickEvent_, clockEdge(1));
}

void PmuObserver::issueNext() {
    if (pendingSend_ != nullptr) {
        trySend();
        return;
    }
    if (configuring_) {
        if (nextConfig_ < configWrites_.size()) {
            auto pkt = makeWritePacket(params_.pmuBase + configWrites_[nextConfig_].addr, 8);
            pkt->set<std::uint64_t>(configWrites_[nextConfig_].data);
            pkt->setReqId(scriptRequest_);
            pendingSend_ = std::move(pkt);
            trySend();
        }
        return;
    }
    if (nextRead_ < kNumReads) {
        pendingSend_ = makeReadPacket(params_.pmuBase + kReadOffsets[nextRead_], 8);
        pendingSend_->setReqId(readoutRequest_);
        trySend();
        return;
    }
    // All counters read: clear the interrupt.
    auto clear = makeWritePacket(params_.pmuBase + models::PmuDesign::kIrqStatusReg, 8);
    clear->set<std::uint64_t>(0);
    clear->setReqId(readoutRequest_);
    pendingSend_ = std::move(clear);
    trySend();
}

void PmuObserver::trySend() {
    if (pendingSend_ == nullptr) return;
    if (!port_.sendTimingReq(pendingSend_)) return;  // recvReqRetry resends.
}

bool PmuObserver::handleResp(PacketPtr& pkt) {
    if (configuring_) {
        pkt.reset();
        if (++nextConfig_ >= configWrites_.size()) {
            configuring_ = false;
            if (irqPendingDuringReadout_) {
                irqPendingDuringReadout_ = false;
                startReadout();
            }
        } else if (!kickEvent_.scheduled()) {
            eventQueue().schedule(kickEvent_, clockEdge(1));
        }
        return true;
    }
    if (pkt->cmd() == MemCmd::kReadResp) {
        current_.counters[nextRead_] = pkt->get<std::uint64_t>();
        ++nextRead_;
        pkt.reset();
        if (!kickEvent_.scheduled()) eventQueue().schedule(kickEvent_, clockEdge(1));
        return true;
    }
    // The IRQ-clear write completed: the sample is done. The whole readout is
    // interrupt-handler work running on the host, so it bills as hostLoad.
    pkt.reset();
    if (SimObserver* obs = threadObserver()) {
        obs->requestSpan(readoutRequest_, ReqStage::kHostLoad, current_.irqTick, curTick());
        obs->requestEnd(readoutRequest_, curTick());
    }
    samples_.push_back(current_);
    ++readouts_;
    readoutActive_ = false;
    if (irqPendingDuringReadout_) {
        irqPendingDuringReadout_ = false;
        startReadout();
    }
    return true;
}

}  // namespace g5r
