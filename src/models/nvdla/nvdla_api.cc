// Shared-library wrapper for the NVDLA-style accelerator: the analogue of
// the NVIDIA-provided nvdla.cpp Verilator wrapper the paper adapts. The
// CSB/AXI interface classes map onto the generic dev/memory channels of the
// bridge ABI.
#include <memory>
#include <optional>

#include "bridge/rtl_api.h"
#include "models/nvdla/nvdla_design.hh"
#include "rtl/vcd.hh"

namespace g5r::models {
namespace {

class NvdlaWrapper {
public:
    /// Rebuilds the design in its own storage, so an attached VCD writer,
    /// which holds references to its registers, traces the fresh design
    /// (a trace may start before the simulator's first reset).
    void reset() {
        design_.emplace();
        cycle_ = 0;
        readPending_ = false;
    }

    /// @p out arrives zero-filled (the caller's side of the rtl_api.h ABI).
    void tick(const G5rRtlInput& in, G5rRtlOutput& out) {
        if (!design_) reset();
        if (in.skipped_cycles != 0) {
            design_->skipIdleCycles(in.skipped_cycles);
            cycle_ += in.skipped_cycles;
        }

        if (readPending_) {
            out.dev_resp_valid = 1;
            out.dev_rdata = design_->csbRead(readAddr_);
            readPending_ = false;
        }

        if (in.dev_valid != 0) {
            out.dev_ready = 1;
            if (in.dev_write != 0) {
                design_->csbWrite(in.dev_addr, in.dev_wdata);
            } else {
                readPending_ = true;
                readAddr_ = in.dev_addr;
            }
        }

        design_->cycle(in, out);
        ++cycle_;

        out.irq = design_->irqAsserted() ? 1 : 0;
        out.done = design_->doneFlag() ? 1 : 0;
        // Idle with the engine drained, quiet while it waits on memory with
        // nothing to emit; neither with a CSB read awaiting its reply beat or
        // a VCD recording (skipped cycles would be missing from it).
        if (!readPending_ && vcd_ == nullptr) {
            out.idle_hint = design_->quiescent() ? 1 : 0;
            out.quiet_hint =
                design_->stalled(in.mem_req_credits - out.mem_req_count) ? 1 : 0;
        }
        if (vcd_ != nullptr) vcd_->dumpCycle(cycle_);
    }

    int traceStart(const char* path) {
        if (!design_) reset();
        vcd_ = std::make_unique<rtl::VcdWriter>(path, *design_);
        if (!vcd_->ok()) {
            vcd_.reset();
            return 1;
        }
        return 0;
    }

    void traceStop() { vcd_.reset(); }

private:
    std::optional<NvdlaDesign> design_;
    std::unique_ptr<rtl::VcdWriter> vcd_;
    std::uint64_t cycle_ = 0;
    bool readPending_ = false;
    std::uint64_t readAddr_ = 0;
};

void* nvdlaCreate(const char* /*config*/) { return new NvdlaWrapper(); }
void nvdlaDestroy(void* model) { delete static_cast<NvdlaWrapper*>(model); }
void nvdlaReset(void* model) { static_cast<NvdlaWrapper*>(model)->reset(); }
void nvdlaTick(void* model, const G5rRtlInput* in, G5rRtlOutput* out) {
    static_cast<NvdlaWrapper*>(model)->tick(*in, *out);
}
int nvdlaTraceStart(void* model, const char* path) {
    return static_cast<NvdlaWrapper*>(model)->traceStart(path);
}
void nvdlaTraceStop(void* model) { static_cast<NvdlaWrapper*>(model)->traceStop(); }

constexpr G5rRtlModelApi kNvdlaApi = {
    G5R_RTL_ABI_VERSION, "nvdla",
    nvdlaCreate, nvdlaDestroy, nvdlaReset, nvdlaTick, nvdlaTraceStart, nvdlaTraceStop,
};

}  // namespace
}  // namespace g5r::models

// In-process access; the shared library adds the generic symbol via shim.cc.
extern "C" const G5rRtlModelApi* g5r_nvdla_model_api() { return &g5r::models::kNvdlaApi; }
