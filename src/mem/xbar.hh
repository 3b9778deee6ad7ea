// Coherent crossbar (NoC of Table 1: 128-bit wide, 2-cycle latency).
//
// N CPU-side (upstream) ports and M mem-side (downstream) ports. Requests are
// routed by address range — optionally bit-interleaved, which is how the
// 8-bank LLC is striped — and responses are routed back to their original
// source port by the hop the crossbar pushed onto the packet's route stack
// when it accepted the request (mem/packet.hh). Each output direction is
// guarded by a "layer" that models the switch occupancy: header latency
// plus one cycle per 128-bit beat, with gem5-style retry lists when a
// layer is busy. A
// released request layer wakes all its waiters; a released response layer
// wakes them in order only until one re-occupies it (port.hh's
// response-retry contract).
//
// Coherence note: the evaluated workloads are share-nothing (see DESIGN.md),
// so the crossbar routes without snooping; write-back caches above it remain
// functionally correct for disjoint working sets.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "mem/addr_range.hh"
#include "mem/packet.hh"
#include "mem/port.hh"
#include "sim/clocked.hh"
#include "sim/event.hh"
#include "sim/simulation.hh"

namespace g5r {

/// Routing rule for one downstream port. With intlvBits == 0, matches the
/// whole range; otherwise additionally matches addresses whose
/// (addr >> intlvShift) % 2^intlvBits == intlvMatch (bank striping).
struct RouteSpec {
    AddrRange range;
    unsigned intlvShift = 0;
    unsigned intlvBits = 0;
    unsigned intlvMatch = 0;

    bool matches(Addr addr) const {
        if (!range.contains(addr)) return false;
        if (intlvBits == 0) return true;
        const Addr mask = (Addr{1} << intlvBits) - 1;
        return ((addr >> intlvShift) & mask) == intlvMatch;
    }
};

class Xbar : public ClockedObject {
public:
    struct Params {
        Tick clockPeriod = periodFromGHz(2);
        Cycles forwardLatency = 2;  ///< Header latency through the switch.
        unsigned widthBytes = 16;   ///< Datapath width (128 bits).
    };

    Xbar(Simulation& sim, std::string name, const Params& params);
    ~Xbar() override;

    /// Create a new upstream port (call before simulation starts).
    ResponsePort& addCpuSidePort(const std::string& suffix);

    /// Create a new downstream port with its routing rule.
    RequestPort& addMemSidePort(const std::string& suffix, const RouteSpec& route);

    std::size_t numCpuSidePorts() const { return upPorts_.size(); }
    std::size_t numMemSidePorts() const { return downPorts_.size(); }

    // --- introspection for static analysis (src/lint/soc_lint) -------------
    const ResponsePort& cpuSidePort(unsigned idx) const;
    const RequestPort& memSidePort(unsigned idx) const;
    const std::vector<RouteSpec>& routes() const { return routes_; }

private:
    class UpPort;
    class DownPort;

    /// One direction of one output port: holds at most one in-flight packet.
    struct Layer {
        bool busy = false;
        bool waitingPeer = false;  ///< Delivery attempted; peer rejected.
        Tick freeTick = 0;
        Tick acceptTick = 0;  ///< When the occupying packet was accepted.
        PacketPtr pkt;
        std::vector<unsigned> retryList;
        /// Storage for the next retryList: a release wakes the old list and
        /// parks its emptied storage here, so no release allocates.
        std::vector<unsigned> spareList;
        std::unique_ptr<CallbackEvent> deliverEvent;
        std::unique_ptr<CallbackEvent> freeEvent;
    };

    unsigned route(Addr addr) const;

    bool handleReq(unsigned srcUp, PacketPtr& pkt);
    void deliverReq(unsigned dstDown);
    void finishReqLayer(unsigned dstDown);

    bool handleResp(unsigned srcDown, PacketPtr& pkt);
    void deliverResp(unsigned dstUp);
    void finishRespLayer(unsigned dstUp);

    void handleFunctional(Packet& pkt);

    /// Count a send refused because @p layer is busy, and queue its sender
    /// for the layer's retry (once).
    void refuse(Layer& layer, unsigned srcIdx);

    /// Occupy @p layer with @p pkt and schedule its delivery.
    void acceptIntoLayer(Layer& layer, PacketPtr& pkt, CallbackEvent& deliverEvent);

    Params params_;
    std::vector<std::unique_ptr<UpPort>> upPorts_;
    std::vector<std::unique_ptr<DownPort>> downPorts_;
    std::vector<RouteSpec> routes_;
    std::vector<Layer> reqLayers_;   ///< One per downstream port.
    std::vector<Layer> respLayers_;  ///< One per upstream port.

    stats::Scalar& reqsRouted_;
    stats::Scalar& respsRouted_;
    stats::Scalar& layerConflicts_;
    stats::Scalar& bytesRouted_;
    /// Per upstream port: round-trip ticks from request accept to response
    /// arrival ("latencyHist.<suffix>"), indexed like upPorts_. Exact bucket
    /// counts answer p50/p99/p999 and let per-master histograms merge
    /// losslessly.
    std::vector<stats::Histogram*> latencyHist_;
};

}  // namespace g5r
