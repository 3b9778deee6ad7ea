#include "mem/xbar.hh"

#include <algorithm>
#include <utility>

namespace g5r {

// ------------------------------------------------------------------- ports --

class Xbar::UpPort final : public ResponsePort {
public:
    UpPort(std::string portName, Xbar& owner, unsigned idx)
        : ResponsePort(std::move(portName)), owner_(owner), idx_(idx) {}

    bool recvTimingReq(PacketPtr& pkt) override { return owner_.handleReq(idx_, pkt); }
    void recvFunctional(Packet& pkt) override { owner_.handleFunctional(pkt); }
    void recvRespRetry() override { owner_.deliverResp(idx_); }

private:
    Xbar& owner_;
    unsigned idx_;
};

class Xbar::DownPort final : public RequestPort {
public:
    DownPort(std::string portName, Xbar& owner, unsigned idx)
        : RequestPort(std::move(portName)), owner_(owner), idx_(idx) {}

    bool recvTimingResp(PacketPtr& pkt) override { return owner_.handleResp(idx_, pkt); }
    void recvReqRetry() override { owner_.deliverReq(idx_); }

private:
    Xbar& owner_;
    unsigned idx_;
};

// -------------------------------------------------------------------- xbar --

Xbar::Xbar(Simulation& sim, std::string objName, const Params& params)
    : ClockedObject(sim, std::move(objName), params.clockPeriod),
      params_(params),
      reqsRouted_(stats_.scalar("reqsRouted", "requests switched downstream")),
      respsRouted_(stats_.scalar("respsRouted", "responses switched upstream")),
      layerConflicts_(stats_.scalar("layerConflicts", "sends rejected, layer busy")),
      bytesRouted_(stats_.scalar("bytesRouted", "payload bytes through the switch")) {}

Xbar::~Xbar() = default;

ResponsePort& Xbar::addCpuSidePort(const std::string& suffix) {
    const unsigned idx = static_cast<unsigned>(upPorts_.size());
    upPorts_.push_back(std::make_unique<UpPort>(name() + ".cpu_side." + suffix, *this, idx));
    latencyHist_.push_back(&stats_.histogram(
        "latencyHist." + suffix, "round-trip ticks, request accept to response arrival"));

    respLayers_.emplace_back();
    Layer& layer = respLayers_.back();
    layer.deliverEvent = std::make_unique<CallbackEvent>(
        *this, "respDeliver." + suffix, [this, idx] { deliverResp(idx); },
        EventPriority::kResponse);
    layer.freeEvent = std::make_unique<CallbackEvent>(
        *this, "respFree." + suffix, [this, idx] { finishRespLayer(idx); },
        EventPriority::kResponse);
    return *upPorts_.back();
}

RequestPort& Xbar::addMemSidePort(const std::string& suffix, const RouteSpec& route) {
    const unsigned idx = static_cast<unsigned>(downPorts_.size());
    downPorts_.push_back(
        std::make_unique<DownPort>(name() + ".mem_side." + suffix, *this, idx));
    routes_.push_back(route);

    reqLayers_.emplace_back();
    Layer& layer = reqLayers_.back();
    layer.deliverEvent = std::make_unique<CallbackEvent>(
        *this, "reqDeliver." + suffix, [this, idx] { deliverReq(idx); });
    layer.freeEvent = std::make_unique<CallbackEvent>(
        *this, "reqFree." + suffix, [this, idx] { finishReqLayer(idx); });
    return *downPorts_.back();
}

const ResponsePort& Xbar::cpuSidePort(unsigned idx) const { return *upPorts_.at(idx); }

const RequestPort& Xbar::memSidePort(unsigned idx) const { return *downPorts_.at(idx); }

unsigned Xbar::route(Addr addr) const {
    for (unsigned i = 0; i < routes_.size(); ++i) {
        if (routes_[i].matches(addr)) return i;
    }
    panicStream(strCat("xbar ", name(), ": no route for address 0x", std::hex, addr));
}

void Xbar::acceptIntoLayer(Layer& layer, PacketPtr& pkt, unsigned srcIdx,
                           CallbackEvent& deliverEvent) {
    // Only payload occupies the datapath: write requests and read responses
    // carry data; read requests and write acks are a single header beat.
    const bool carriesData = (pkt->isWrite() && pkt->isRequest()) ||
                             (pkt->isRead() && pkt->isResponse());
    const unsigned payload = carriesData ? pkt->size() : 0;
    const Cycles beats =
        std::max<Cycles>(1, (payload + params_.widthBytes - 1) / params_.widthBytes);
    layer.busy = true;
    layer.waitingPeer = false;
    layer.srcIdx = srcIdx;
    layer.acceptTick = curTick();
    // Header latency is pipelined; the layer is occupied for the beats only.
    layer.freeTick = clockEdge(beats);
    bytesRouted_ += payload;
    layer.pkt = std::move(pkt);
    eventQueue().schedule(deliverEvent, clockEdge(params_.forwardLatency));
}

void Xbar::refuse(Layer& layer, unsigned srcIdx) {
    ++layerConflicts_;
    if (std::find(layer.retryList.begin(), layer.retryList.end(), srcIdx) ==
        layer.retryList.end()) {
        layer.retryList.push_back(srcIdx);
    }
}

// ----------------------------------------------------------- request path --

bool Xbar::handleReq(unsigned srcUp, PacketPtr& pkt) {
    const unsigned dst = route(pkt->addr());
    Layer& layer = reqLayers_[dst];
    if (layer.busy) {
        refuse(layer, srcUp);
        return false;
    }
    ++reqsRouted_;
    acceptIntoLayer(layer, pkt, srcUp, *layer.deliverEvent);
    return true;
}

void Xbar::deliverReq(unsigned dstDown) {
    Layer& layer = reqLayers_[dstDown];
    if (!layer.busy || layer.pkt == nullptr) return;

    const bool wantsRoute = layer.pkt->needsResponse();
    const std::uint64_t id = layer.pkt->id();
    const ReqId reqId = layer.pkt->reqId();
    const Tick acceptTick = layer.acceptTick;
    if (!downPorts_[dstDown]->sendTimingReq(layer.pkt)) {
        layer.waitingPeer = true;  // Peer will recvReqRetry -> deliverReq again.
        return;
    }
    if (wantsRoute) respRoute_[id] = RouteInfo{layer.srcIdx, layer.acceptTick};
    // Ticks between layer acceptance and the downstream peer taking the
    // packet are crossbar queueing, blamed on the packet's request.
    if (reqId != 0 && curTick() > acceptTick) {
        if (SimObserver* obs = threadObserver()) {
            obs->requestSpan(reqId, ReqStage::kXbarQueue, acceptTick, curTick());
        }
    }

    if (layer.freeTick <= curTick()) {
        finishReqLayer(dstDown);
    } else if (!layer.freeEvent->scheduled()) {
        eventQueue().schedule(*layer.freeEvent, layer.freeTick);
    }
}

void Xbar::finishReqLayer(unsigned dstDown) {
    Layer& layer = reqLayers_[dstDown];
    layer.busy = false;
    layer.waitingPeer = false;
    std::vector<unsigned> waking =
        std::exchange(layer.retryList, std::move(layer.spareList));
    for (const unsigned up : waking) upPorts_[up]->sendReqRetry();
    waking.clear();
    layer.spareList = std::move(waking);
}

// ---------------------------------------------------------- response path --

bool Xbar::handleResp(unsigned srcDown, PacketPtr& pkt) {
    const auto it = respRoute_.find(pkt->id());
    simAssert(it != respRoute_.end(), "response with no recorded route");
    const unsigned dstUp = it->second.up;

    Layer& layer = respLayers_[dstUp];
    if (layer.busy) {
        refuse(layer, srcDown);
        return false;
    }
    const Tick rtt = curTick() - it->second.issued;
    latencyHist_[dstUp]->sampleInt(rtt);
    respRoute_.erase(it);
    ++respsRouted_;
    acceptIntoLayer(layer, pkt, srcDown, *layer.deliverEvent);
    return true;
}

void Xbar::deliverResp(unsigned dstUp) {
    Layer& layer = respLayers_[dstUp];
    if (!layer.busy || layer.pkt == nullptr) return;

    const ReqId reqId = layer.pkt->reqId();
    const Tick acceptTick = layer.acceptTick;
    if (!upPorts_[dstUp]->sendTimingResp(layer.pkt)) {
        layer.waitingPeer = true;  // Peer will recvRespRetry -> deliverResp again.
        return;
    }
    if (reqId != 0 && curTick() > acceptTick) {
        if (SimObserver* obs = threadObserver()) {
            obs->requestSpan(reqId, ReqStage::kXbarQueue, acceptTick, curTick());
        }
    }

    if (layer.freeTick <= curTick()) {
        finishRespLayer(dstUp);
    } else if (!layer.freeEvent->scheduled()) {
        eventQueue().schedule(*layer.freeEvent, layer.freeTick);
    }
}

void Xbar::finishRespLayer(unsigned dstUp) {
    Layer& layer = respLayers_[dstUp];
    layer.busy = false;
    layer.waitingPeer = false;
    std::vector<unsigned> waking =
        std::exchange(layer.retryList, std::move(layer.spareList));
    // Wake waiters in order only while the layer is free. Once one of them
    // re-occupies it, each later waiter would resend into a busy layer and
    // be refused with no other effect (the response-retry contract in
    // port.hh), so the rest are re-queued in order and counted exactly as
    // those refusals would have been, without the calls. They are distinct,
    // so only the senders refused during the wakes can duplicate one.
    auto next = waking.begin();
    for (; next != waking.end() && !layer.busy; ++next) downPorts_[*next]->sendRespRetry();
    layerConflicts_ += static_cast<double>(waking.end() - next);
    std::vector<unsigned>& queue = layer.retryList;
    const auto refusedDuringWakes = static_cast<std::ptrdiff_t>(queue.size());
    if (refusedDuringWakes == 0) {
        queue.insert(queue.end(), next, waking.end());
    } else {
        for (; next != waking.end(); ++next) {
            const auto fresh = queue.begin() + refusedDuringWakes;
            if (std::find(queue.begin(), fresh, *next) == fresh) queue.push_back(*next);
        }
    }
    waking.clear();
    layer.spareList = std::move(waking);
}

void Xbar::handleFunctional(Packet& pkt) {
    downPorts_[route(pkt.addr())]->sendFunctional(pkt);
}

}  // namespace g5r
