// Bitonic sorting accelerator — the paper's GHDL/VHDL use case.
//
// The design is a bitonic sorting network expressed as a structural netlist
// (rtl/netlist.hh, the GHDL-toolflow stand-in) and interpreted at runtime;
// this wrapper gives it the same shared-library face as the Verilator-path
// models, demonstrating that both HDL flows land behind one ABI.
//
// Device register map:
//   0x000 + 8*i : input element i (write)
//   0x100 + 8*i : output element i (read; valid when done)
//   0x200       : control — write 1 to start a sort
//   0x208       : status — bit0 busy, bit1 done
//   0x210       : element count N (read-only)
//
// A sort takes one cycle per network stage (the pipeline depth of the
// combinational network if it were registered), so timing scales with
// log^2(N) like the real design would.
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bridge/rtl_api.h"
#include "obs/trigger.hh"
#include "rtl/netlist.hh"
#include "rtl/vcd.hh"

namespace g5r::models {
namespace {

class BitonicWrapper {
public:
    explicit BitonicWrapper(unsigned n)
        : n_(n), stages_(rtl::bitonicStages(n)),
          netlist_(rtl::bitonicSorterNetlist(n)), inputs_(n, 0), outputs_(n, 0) {}

    void reset() {
        netlist_.reset();
        std::fill(inputs_.begin(), inputs_.end(), 0);
        std::fill(outputs_.begin(), outputs_.end(), 0);
        busyCycles_ = 0;
        done_ = false;
        readPending_ = false;
    }

    /// @p out arrives zero-filled (the caller's side of the rtl_api.h ABI).
    void tick(const G5rRtlInput& in, G5rRtlOutput& out) {
        if (readPending_) {
            out.dev_resp_valid = 1;
            out.dev_rdata = readReg(readAddr_);
            readPending_ = false;
        }

        if (in.dev_valid != 0) {
            out.dev_ready = 1;
            if (in.dev_write != 0) {
                writeReg(in.dev_addr, in.dev_wdata);
            } else {
                readPending_ = true;
                readAddr_ = in.dev_addr;
            }
        }

        if (busyCycles_ > 0) {
            if (--busyCycles_ == 0) {
                // Network output settles after the pipeline depth elapses.
                for (unsigned i = 0; i < n_; ++i) {
                    netlist_.setInput("in" + std::to_string(i), inputs_[i]);
                }
                netlist_.eval();
                for (unsigned i = 0; i < n_; ++i) {
                    outputs_[i] = netlist_.output("out" + std::to_string(i));
                }
                done_ = true;
            }
        }

        out.irq = done_ ? 1 : 0;
        out.done = done_ ? 1 : 0;
        // Idle whenever the sort pipeline is not counting down, no CSB
        // read awaits its reply beat, and no armed trigger capture needs to
        // see every cycle: with stable inputs nothing changes.
        out.idle_hint = busyCycles_ == 0 && !readPending_ &&
                                (capture_ == nullptr || !capture_->active())
                            ? 1
                            : 0;
        ++cycle_;
        if (capture_ != nullptr) capture_->cycle(cycle_);
    }

    int traceStart(const char* path) {
        // The GHDL path has no always-on runtime VCD toggling (as in the
        // paper), but trigger-windowed capture works on interpreted
        // netlists: GEM5RTL_TRIGGER watches any named net.
        if (const char* spec = std::getenv("GEM5RTL_TRIGGER"); spec != nullptr &&
                                                               *spec != '\0') {
            capture_ = obs::TriggerCapture::fromSpecString(spec, path,
                                                           rtl::netlistSignals(netlist_));
            return capture_ != nullptr ? 0 : 1;
        }
        return 1;
    }

    void traceStop() { capture_.reset(); }

private:
    void writeReg(std::uint64_t addr, std::uint64_t data) {
        const std::uint64_t off = addr & 0x3FF;
        if (off < 8ull * n_) {
            inputs_[off / 8] = data;
        } else if (off == 0x200 && (data & 1) != 0) {
            busyCycles_ = stages_;
            done_ = false;
        }
    }

    std::uint64_t readReg(std::uint64_t addr) const {
        const std::uint64_t off = addr & 0x3FF;
        if (off >= 0x100 && off < 0x100 + 8ull * n_) return outputs_[(off - 0x100) / 8];
        if (off == 0x208) return (busyCycles_ > 0 ? 1u : 0u) | (done_ ? 2u : 0u);
        if (off == 0x210) return n_;
        return 0;
    }

    unsigned n_;
    unsigned stages_;
    rtl::Netlist netlist_;
    std::vector<std::uint64_t> inputs_;
    std::vector<std::uint64_t> outputs_;
    unsigned busyCycles_ = 0;
    bool done_ = false;
    bool readPending_ = false;
    std::uint64_t readAddr_ = 0;
    std::uint64_t cycle_ = 0;
    std::unique_ptr<obs::TriggerCapture> capture_;
};

void* bitonicCreate(const char* config) {
    try {
        // A malformed config fails create(), which the bridge reports with
        // the config string; eval= only picks the library, so it is ignored here.
        return new BitonicWrapper(rtl::parseBitonicConfig(config != nullptr ? config : "").n);
    } catch (const std::exception&) {
        return nullptr;
    }
}
void bitonicDestroy(void* model) { delete static_cast<BitonicWrapper*>(model); }
void bitonicReset(void* model) { static_cast<BitonicWrapper*>(model)->reset(); }
void bitonicTick(void* model, const G5rRtlInput* in, G5rRtlOutput* out) {
    static_cast<BitonicWrapper*>(model)->tick(*in, *out);
}
int bitonicTraceStart(void* model, const char* path) {
    return static_cast<BitonicWrapper*>(model)->traceStart(path);
}
void bitonicTraceStop(void* model) { static_cast<BitonicWrapper*>(model)->traceStop(); }

constexpr G5rRtlModelApi kBitonicApi = {
    G5R_RTL_ABI_VERSION, "bitonic",
    bitonicCreate, bitonicDestroy, bitonicReset, bitonicTick,
    bitonicTraceStart, bitonicTraceStop,
};

}  // namespace
}  // namespace g5r::models

extern "C" const G5rRtlModelApi* g5r_bitonic_model_api() { return &g5r::models::kBitonicApi; }
