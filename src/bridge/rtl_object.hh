// RTLObject: the paper's core contribution.
//
// A generic SimObject that hosts an RTL model (behind the shared-library C
// ABI) inside the simulated SoC:
//
//   * four timing ports — two CPU-side (device/config traffic into the
//     model) and two memory-side (model-initiated traffic to the SoC memory
//     system), matching Section 3.4;
//   * a tick event running at the RTL model's own clock, configurable
//     relative to the SoC clock (the frequency-ratio parameter);
//   * the input/output struct exchange with the wrapper on every tick;
//   * optional TLB translation of model memory addresses;
//   * a max-in-flight-requests cap on model memory traffic — the knob the
//     NVDLA design-space exploration sweeps (Figs. 6/7);
//   * sideband event delivery (HwEventBus -> model event inputs, how the
//     PMU observes commit/miss/cycle events);
//   * an interrupt-line callback toward the SoC.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "bridge/rtl_model.hh"
#include "bridge/tlb.hh"
#include "mem/addr_range.hh"
#include "mem/port.hh"
#include "sim/clocked.hh"
#include "sim/event.hh"
#include "sim/hw_events.hh"
#include "sim/simulation.hh"

namespace g5r {

struct RtlObjectParams {
    /// RTL clock period. Table 1 runs the PMU and NVDLA at 1 GHz in a 2 GHz
    /// SoC; this is the paper's "parameter to change the frequency with
    /// respect to the core".
    Tick clockPeriod = periodFromGHz(1);

    /// Maximum outstanding model memory requests (per RTLObject).
    unsigned maxInflight = 240;

    /// Device-queue depth before back-pressuring the interconnect.
    unsigned devQueueDepth = 8;

    /// Translate model memory addresses through the attached TLB.
    bool translate = false;

    /// Stop the simulation when the model raises its done flag.
    bool exitOnDone = false;

    /// Deschedule the RTL tick event while the model reports quiescence
    /// (G5rRtlOutput::idle_hint) and the bridge holds no queued work. Wakes
    /// on device-request arrival, memory response, or an event-bus pulse.
    /// Timing-neutral for a single RTL object on its clock (see
    /// tick()/wake()), which is what Table 3's check covers. Two objects
    /// ticking on the same clock can swap same-tick order: a woken tick
    /// draws a fresh sequence number and runs after peers that never
    /// stopped (ROADMAP). Ignored for pre-v2 models, which lack the hint.
    bool gateIdleTicks = true;
};

class RtlObject : public ClockedObject {
public:
    static constexpr unsigned kNumCpuSidePorts = 2;
    static constexpr unsigned kNumMemSidePorts = 2;

    RtlObject(Simulation& sim, std::string name, const RtlObjectParams& params,
              std::unique_ptr<RtlModel> model, HwEventBus* eventBus = nullptr,
              Tlb* tlb = nullptr);
    ~RtlObject() override;

    /// CPU-side (device/config) ports: the SoC initiates requests here.
    ResponsePort& cpuSidePort(unsigned idx = 0);

    /// Memory-side ports: the model initiates requests here. Port 0 carries
    /// model port-0 traffic (DBBIF-style), port 1 carries port-1 (SRAMIF).
    /// Binding port 1 is optional; unbound port-1 traffic is routed to
    /// port 0 (the paper connects both NVDLA interfaces to main memory).
    RequestPort& memSidePort(unsigned idx = 0);

    /// Level-change notifications of the model's interrupt line.
    void setIrqCallback(std::function<void(bool)> cb) { irqCallback_ = std::move(cb); }

    RtlModel& model() { return *model_; }
    bool modelDone() const { return done_; }
    bool irqLevel() const { return irqLevel_; }
    unsigned outstandingRequests() const { return outstanding_; }

    /// True while the tick event is descheduled on a quiescence hint.
    bool isGated() const { return gated_; }

    /// RTL cycles skipped while gated (the new `gatedTicks` stat).
    std::uint64_t gatedTicks() const {
        return static_cast<std::uint64_t>(statGatedTicks_.value());
    }

    /// Waveform passthrough (Table 2's gem5+PMU+waveform configuration).
    bool traceStart(const std::string& vcdPath) { return model_->traceStart(vcdPath); }
    void traceStop() { model_->traceStop(); }

    void startup() override;

private:
    class CpuSidePort final : public ResponsePort {
    public:
        CpuSidePort(std::string n, RtlObject& o, unsigned idx)
            : ResponsePort(std::move(n)), owner_(o), idx_(idx) {}
        bool recvTimingReq(PacketPtr& pkt) override { return owner_.recvDevReq(idx_, pkt); }
        void recvFunctional(Packet& pkt) override { owner_.devFunctional(pkt); }
        void recvRespRetry() override { owner_.respBlocked_[idx_] = false; owner_.sendDevResponses(); }

    private:
        RtlObject& owner_;
        unsigned idx_;
    };

    class MemSidePort final : public RequestPort {
    public:
        MemSidePort(std::string n, RtlObject& o, unsigned idx)
            : RequestPort(std::move(n)), owner_(o), idx_(idx) {}
        bool recvTimingResp(PacketPtr& pkt) override { return owner_.recvMemResp(pkt); }
        void recvReqRetry() override { owner_.memBlocked_[idx_] = false; owner_.sendMemRequests(); }

    private:
        RtlObject& owner_;
        unsigned idx_;
    };

    void tick();
    bool recvDevReq(unsigned portIdx, PacketPtr& pkt);
    void devFunctional(Packet& pkt);
    bool recvMemResp(PacketPtr& pkt);
    void sendDevResponses();
    void sendDevRetries();
    void sendMemRequests();
    void issueModelRequests(const G5rRtlOutput& out);
    bool canGate(const G5rRtlOutput& out) const;
    void wake();

    RtlObjectParams params_;
    std::unique_ptr<RtlModel> model_;
    HwEventBus* eventBus_;
    Tlb* tlb_;
    CallbackEvent tickEvent_;

    std::array<std::unique_ptr<CpuSidePort>, kNumCpuSidePorts> cpuPorts_;
    std::array<std::unique_ptr<MemSidePort>, kNumMemSidePorts> memPorts_;

    // Device channel.
    struct DevReq {
        unsigned port;
        PacketPtr pkt;
    };
    std::deque<DevReq> devQueue_;
    std::optional<DevReq> devReadPending_;
    bool devPresented_ = false;  ///< This tick's input carries devQueue_.front().
    std::array<bool, kNumCpuSidePorts> needDevRetry_{};
    std::array<bool, kNumCpuSidePorts> respBlocked_{};
    std::array<std::deque<PacketPtr>, kNumCpuSidePorts> respQueues_;

    // Model memory traffic.
    struct ModelResp {
        std::uint64_t id;
        std::array<std::uint8_t, G5R_RTL_MEM_DATA_BYTES> data;
    };
    std::deque<ModelResp> modelRespQueue_;
    std::unordered_map<std::uint64_t, std::uint64_t> pktToModelId_;
    std::array<std::deque<PacketPtr>, kNumMemSidePorts> memSendQueues_;
    std::array<bool, kNumMemSidePorts> memBlocked_{};
    unsigned outstanding_ = 0;

    bool irqLevel_ = false;
    bool done_ = false;
    std::function<void(bool)> irqCallback_;

    /// Causal context: the request of the last accepted device write (the
    /// host's configuration stream carries its job's ReqId). Model-initiated
    /// memory traffic is tagged with it — NVDLA reads its trace data on
    /// behalf of the job the host last configured.
    ReqId curReq_ = 0;

    // Quiescence gating. gatedAtEdge_ remembers the edge the descheduled
    // tick would have run at, so a wake in the same cycle re-runs it there
    // (never earlier, never twice) and later wakes can count skipped edges.
    bool gated_ = false;
    Tick gatedAtEdge_ = 0;

    stats::Scalar& statTicks_;
    stats::Scalar& statDevReads_;
    stats::Scalar& statDevWrites_;
    stats::Scalar& statMemReads_;
    stats::Scalar& statMemWrites_;
    stats::Scalar& statBytesRead_;
    stats::Scalar& statBytesWritten_;
    stats::Scalar& statZeroCreditTicks_;
    stats::Scalar& statGatedTicks_;
    stats::Scalar& statIrqEdges_;
    /// The bridge queues, sampled each delivered tick: outstanding memory
    /// requests and device-queue depth.
    stats::Histogram& statOutstandingHist_;
    stats::Histogram& statDevQueueHist_;
};

}  // namespace g5r
