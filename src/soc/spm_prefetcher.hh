// SpmPrefetcher: warms a scratchpad from an NVDLA txn trace.
//
// The dmaSpm memory path stages the accelerator's working set (ifmap +
// weights, i.e. the trace's preloaded data segments) in the SPM before the
// CSB programming starts, so the DLA's read stream sees SRAM-class latency
// from the first transaction. At startup() it enqueues one DMA descriptor
// per trace segment (src == dst: the SPM mirrors the main-memory window)
// and fires its done callback once the last copy completes — the SoC layer
// uses that to release the waiting NvdlaHost.
#pragma once

#include <functional>
#include <memory>

#include "mem/dma.hh"
#include "models/nvdla/trace.hh"
#include "sim/sim_object.hh"

namespace g5r {

class SpmPrefetcher : public SimObject {
public:
    SpmPrefetcher(Simulation& sim, std::string name, DmaEngine& dma,
                  std::shared_ptr<const models::NvdlaTrace> trace);

    /// Invoked once when every segment has been staged into the SPM.
    void setDoneCallback(std::function<void()> cb) { doneCallback_ = std::move(cb); }

    /// Parent the prefetch descriptors under @p id (the host job's root
    /// request), so staging work shows up in that job's critical path.
    void setParentRequest(ReqId id) { parentRequest_ = id; }

    bool done() const { return remaining_ == 0; }
    Tick doneTick() const { return doneTick_; }

    void startup() override;

private:
    DmaEngine& dma_;
    std::shared_ptr<const models::NvdlaTrace> trace_;
    std::function<void()> doneCallback_;
    std::size_t remaining_ = 0;
    Tick doneTick_ = 0;
    ReqId parentRequest_ = 0;
};

}  // namespace g5r
