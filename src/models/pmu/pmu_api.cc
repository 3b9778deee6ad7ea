// Shared-library wrapper around the PMU design: the paper's "wrapper ...
// similar to a testbench" that bridges the generated RTL model to the
// tick/reset C ABI consumed by the RTLObject.
//
// As in the original PMU, the register file is reached over AXI-Lite: the
// wrapper converts each device-channel beat into AW/W or AR transactions on
// an AxiLiteSlave endpoint, so reads and writes follow real AXI handshakes
// (including the one-cycle read-data latency the paper's artefact analysis
// depends on).
//
// The PMU's clock is wired to event line HwEventBus::kCycle internally (the
// paper: "we have also connected the clock as a PMU event"), so thresholds
// on that line produce periodic interrupts.
#include <cstdlib>
#include <memory>
#include <string>

#include "axi/axi_lite.hh"
#include "bridge/rtl_api.h"
#include "models/pmu/pmu_design.hh"
#include "obs/trigger.hh"
#include "rtl/vcd.hh"
#include "sim/hw_events.hh"

namespace g5r::models {
namespace {

class PmuWrapper {
public:
    PmuWrapper()
        : axi_([this](std::uint64_t addr) { return design_.readReg(addr); },
               [this](std::uint64_t addr, std::uint64_t data, std::uint8_t) {
                   design_.cfgWriteValid = true;
                   design_.cfgWriteAddr = addr;
                   design_.cfgWriteData = data;
               }) {}

    void reset() {
        design_.reset();
        axi_.reset();
        cycle_ = 0;
    }

    /// @p out arrives zero-filled (the caller's side of the rtl_api.h ABI).
    void tick(const G5rRtlInput& in, G5rRtlOutput& out) {
        // Frame the device beat as AXI-Lite channel activity.
        axi::AxiLiteSlave::Inputs bus;
        if (in.dev_valid != 0) {
            if (in.dev_write != 0) {
                bus.aw = axi::AddrBeat{true, in.dev_addr};
                bus.w = axi::WriteBeat{true, in.dev_wdata, 0xFF};
            } else {
                bus.ar = axi::AddrBeat{true, in.dev_addr};
            }
        }

        design_.cfgWriteValid = false;  // Set by the AXI write path below.
        const axi::AxiLiteSlave::Outputs busOut = axi_.cycle(bus);

        if (in.dev_valid != 0) {
            out.dev_ready = in.dev_write != 0 ? (busOut.awready && busOut.wready ? 1 : 0)
                                              : (busOut.arready ? 1 : 0);
        }
        if (busOut.r.valid) {
            out.dev_resp_valid = 1;
            out.dev_rdata = busOut.r.data;
        }

        for (unsigned i = 0; i < PmuDesign::kNumCounters; ++i) {
            design_.eventsIn[i] = in.events[i];
        }
        design_.eventsIn[HwEventBus::kCycle] += 1;  // The clock-as-event line.

        design_.tick();
        ++cycle_;

        out.irq = design_.irqAsserted() ? 1 : 0;
        // Idle only when the design is insensitive to further idle cycles,
        // the AXI endpoint holds no half-finished transaction, and no VCD or
        // armed trigger capture is recording (skipped cycles would be
        // missing from the dump / unseen by the watchpoint).
        out.idle_hint = design_.quiescent() && axi_.idle() && vcd_ == nullptr &&
                                (capture_ == nullptr || !capture_->active())
                            ? 1
                            : 0;
        if (vcd_ != nullptr) vcd_->dumpCycle(cycle_);
        if (capture_ != nullptr) capture_->cycle(cycle_);
    }

    int traceStart(const char* path) {
        // GEM5RTL_TRIGGER arms a windowed capture instead of always-on
        // tracing: the VCD file appears only if the watchpoint fires.
        if (const char* spec = std::getenv("GEM5RTL_TRIGGER"); spec != nullptr &&
                                                               *spec != '\0') {
            capture_ = obs::TriggerCapture::fromSpecString(spec, path,
                                                           rtl::moduleSignals(design_));
            return capture_ != nullptr ? 0 : 1;
        }
        vcd_ = std::make_unique<rtl::VcdWriter>(path, design_);
        if (!vcd_->ok()) {
            vcd_.reset();
            return 1;
        }
        return 0;
    }

    void traceStop() {
        vcd_.reset();
        capture_.reset();
    }

private:
    PmuDesign design_;
    axi::AxiLiteSlave axi_;
    std::unique_ptr<rtl::VcdWriter> vcd_;
    std::unique_ptr<obs::TriggerCapture> capture_;
    std::uint64_t cycle_ = 0;
};

void* pmuCreate(const char* /*config*/) { return new PmuWrapper(); }
void pmuDestroy(void* model) { delete static_cast<PmuWrapper*>(model); }
void pmuReset(void* model) { static_cast<PmuWrapper*>(model)->reset(); }
void pmuTick(void* model, const G5rRtlInput* in, G5rRtlOutput* out) {
    static_cast<PmuWrapper*>(model)->tick(*in, *out);
}
int pmuTraceStart(void* model, const char* path) {
    return static_cast<PmuWrapper*>(model)->traceStart(path);
}
void pmuTraceStop(void* model) { static_cast<PmuWrapper*>(model)->traceStop(); }

constexpr G5rRtlModelApi kPmuApi = {
    G5R_RTL_ABI_VERSION, "pmu",
    pmuCreate, pmuDestroy, pmuReset, pmuTick, pmuTraceStart, pmuTraceStop,
};

}  // namespace
}  // namespace g5r::models

// In-process access for unit tests and statically-linked configurations.
// The shared library adds the generic G5R_RTL_GET_API_SYMBOL via shim.cc.
extern "C" const G5rRtlModelApi* g5r_pmu_model_api() { return &g5r::models::kPmuApi; }
