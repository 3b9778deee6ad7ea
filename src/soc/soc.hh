// Soc: assembles the full Table 1 system and hosts RTL models on it.
//
// Topology (paper Fig. 2):
//
//   core[i] -> L1I/L1D -> L2 --+
//                               >-- system crossbar (NoC) --> LLC bank[0..7]
//   RTLObject cpu-side  <------+        |                          |
//   (CSB windows routed here)           |                      memory bus
//                                       |                          |
//   RTLObject mem-side ----------------------------------------> DRAM
//
// Cores that are not given a program halt immediately. The simulation ends
// when every program-carrying core has exited (or, for accelerator-only
// studies, when the caller's host objects say so).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bridge/rtl_object.hh"
#include "cpu/assembler.hh"
#include "cpu/ooo_core.hh"
#include "lint/diagnostics.hh"
#include "mem/backing_store.hh"
#include "mem/cache/cache.hh"
#include "mem/dma.hh"
#include "mem/dram.hh"
#include "mem/simple_mem.hh"
#include "mem/spm.hh"
#include "mem/xbar.hh"
#include "obs/session.hh"
#include "soc/config.hh"

namespace g5r {

class Soc {
public:
    Soc(Simulation& sim, const SocConfig& config);

    const SocConfig& config() const { return config_; }
    Simulation& simulation() { return sim_; }
    BackingStore& memory() { return store_; }
    HwEventBus& eventBus() { return eventBus_; }

    OooCore& core(unsigned i) { return *cores_.at(i); }
    Cache& l1d(unsigned i) { return *l1d_.at(i); }
    Cache& l1i(unsigned i) { return *l1i_.at(i); }
    Cache& l2(unsigned i) { return *l2_.at(i); }
    Xbar& systemXbar() { return *systemXbar_; }
    Xbar& memBus() { return *memBus_; }

    /// Load an assembled program at @p base and point core @p coreId at it.
    /// Other cores keep their default HALT and exit immediately.
    void loadProgram(unsigned coreId, const isa::Program& program, Addr base = 0);

    /// How an RTL model's memory-side ports are wired.
    enum class MemPorts {
        kNone,            ///< No memory-side connectivity (e.g. the PMU).
        kMainMemory,      ///< Both ports to main memory (the paper's NVDLA setup).
        kWithScratchpad,  ///< Port 0 to main memory; port 1 to a private
                          ///< scratchpad SRAM (the paper's proposed extension).
    };

    /// Attach an RTL model from a shared library (or in-process model).
    /// Returns the RTLObject; its CSB window is deviceRange(index).
    RtlObject& attachRtlModel(const std::string& name, std::unique_ptr<RtlModel> model,
                              const RtlObjectParams& params, MemPorts memPorts,
                              bool wireEventBus);

    /// Backing store of the scratchpad attached to model number @p idx
    /// (panics if that model has none). Preload data here.
    BackingStore& scratchpadStore(unsigned idx);

    /// The SPM / DMA engine of model number @p idx's dmaSpm memory path
    /// (panics if the model was attached on the direct path).
    Spm& spm(unsigned idx);
    DmaEngine& dmaEngine(unsigned idx);

    /// CSB base address of attached model number @p idx.
    Addr deviceBaseOf(unsigned idx) const { return config_.deviceRange(idx).start; }

    /// A spare upstream port on the system crossbar (for host/observer
    /// objects that issue their own transactions).
    ResponsePort& addHostPort(const std::string& name);

    /// Peak DRAM bandwidth (0 for the ideal-memory configuration).
    double memPeakBandwidth() const;

    /// The observability session created from SocConfig::obs (plus the
    /// GEM5RTL_* environment), or nullptr when fully disabled. Callers
    /// finish() it after run() to flush the trace and build the profile.
    obs::ObsSession* observability() { return obs_.get(); }

    /// Static analysis over the assembled interconnect: unbound crossbar
    /// ports, overlapping/shadowed routes, uncovered memory. Runs
    /// automatically (strict: errors panic) at the end of construction when
    /// SocConfig::elaborationLint is set; callers that wire more ports
    /// afterwards (attachRtlModel, addHostPort) can re-run it.
    lint::Report elaborationLint() const;

    unsigned runningCores() const { return runningCores_; }

private:
    void coreExited();

    Simulation& sim_;
    SocConfig config_;
    BackingStore store_;
    HwEventBus eventBus_;

    std::vector<std::unique_ptr<OooCore>> cores_;
    std::vector<std::unique_ptr<Cache>> l1i_;
    std::vector<std::unique_ptr<Cache>> l1d_;
    std::vector<std::unique_ptr<Cache>> l2_;
    std::vector<std::unique_ptr<Xbar>> l1Muxes_;  ///< Per-core L1I/L1D -> L2 join.
    std::vector<std::unique_ptr<Cache>> llcBanks_;
    std::unique_ptr<Xbar> systemXbar_;
    std::unique_ptr<Xbar> memBus_;
    std::vector<std::unique_ptr<MultiChannelDram>> dramChannels_;
    std::vector<std::unique_ptr<SimpleMemory>> idealMems_;
    std::vector<std::unique_ptr<RtlObject>> rtlObjects_;
    struct Scratchpad {
        std::unique_ptr<BackingStore> store;
        std::unique_ptr<SimpleMemory> mem;
    };
    std::map<unsigned, Scratchpad> scratchpads_;  ///< Model idx -> SRAM.
    /// dmaSpm memory path (SocConfig::memPath): the model's DBBIF and the
    /// DMA's staging port join at a small crossbar in front of the SPM,
    /// whose fill port (and the DMA's memory port) go to the memory bus.
    struct MemPathObjs {
        std::unique_ptr<Xbar> bus;
        std::unique_ptr<Spm> spm;
        std::unique_ptr<DmaEngine> dma;
    };
    std::map<unsigned, MemPathObjs> memPaths_;  ///< Model idx -> DMA+SPM.

    unsigned runningCores_ = 0;
    unsigned attachedModels_ = 0;

    /// Last member: detaches from the simulation and flushes its trace
    /// before any of the observed objects go away.
    std::unique_ptr<obs::ObsSession> obs_;
};

}  // namespace g5r
