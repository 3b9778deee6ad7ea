#include "soc/soc.hh"

#include <sstream>

#include "lint/soc_lint.hh"
#include "sim/logging.hh"

namespace g5r {
namespace {

/// Where idle (program-less) cores boot: a lone HALT instruction.
constexpr Addr kIdleEntry = 0xF000;

unsigned log2of(unsigned v) {
    unsigned bits = 0;
    while ((1u << bits) < v) ++bits;
    return bits;
}

}  // namespace

Soc::Soc(Simulation& sim, const SocConfig& config) : sim_(sim), config_(config) {
    simAssert(config_.llcBanks > 0 && (config_.llcBanks & (config_.llcBanks - 1)) == 0,
              "LLC bank count must be a power of two");

    systemXbar_ = std::make_unique<Xbar>(sim_, "system.noc", config_.nocParams());
    memBus_ = std::make_unique<Xbar>(sim_, "system.membus", config_.nocParams());

    // Main memory: Table 1 DRAM technology, or the ideal 1-cycle memory
    // Figures 6/7 normalise against. Every channel gets its own memory-bus
    // port (as gem5 instantiates one controller per channel), so aggregate
    // bandwidth is not serialised through a single crossbar layer.
    if (config_.memTech == MemTech::kIdeal) {
        constexpr unsigned kIdealBanks = 8;
        for (unsigned b = 0; b < kIdealBanks; ++b) {
            SimpleMemory::Params mp;
            mp.range = config_.memRange;
            mp.clockPeriod = config_.coreClock;
            mp.latency = config_.coreClock;  // 1 cycle.
            mp.bytesPerTick = 0.0;           // Unlimited bandwidth.
            mp.maxPending = 4096;
            idealMems_.push_back(std::make_unique<SimpleMemory>(
                sim_, "system.mem" + std::to_string(b), mp, store_));
            memBus_->addMemSidePort("mem" + std::to_string(b),
                                    RouteSpec{config_.memRange, 6, 3, b})
                .bind(idealMems_.back()->port());
        }
    } else {
        MultiChannelDram::Params dramParams =
            dramParamsFor(config_.memTech, config_.memRange);
        const unsigned numChannels = dramParams.channels;
        const unsigned chBits = log2of(numChannels);
        dramParams.channels = 1;
        dramParams.decodeChannels = numChannels;
        for (unsigned c = 0; c < numChannels; ++c) {
            dramChannels_.push_back(std::make_unique<MultiChannelDram>(
                sim_, "system.mem" + std::to_string(c), dramParams, store_));
            memBus_->addMemSidePort("mem" + std::to_string(c),
                                    RouteSpec{config_.memRange, 6, chBits, c})
                .bind(dramChannels_.back()->port());
        }
    }

    // Shared LLC: banked, striped on the line-address bits above the offset.
    const unsigned bankBits = log2of(config_.llcBanks);
    for (unsigned b = 0; b < config_.llcBanks; ++b) {
        llcBanks_.push_back(std::make_unique<Cache>(
            sim_, "system.llc" + std::to_string(b), config_.llcBankParams()));
        systemXbar_->addMemSidePort("llc" + std::to_string(b),
                                    RouteSpec{config_.memRange, 6, bankBits, b})
            .bind(llcBanks_.back()->cpuSidePort());
        llcBanks_.back()->memSidePort().bind(
            memBus_->addCpuSidePort("llc" + std::to_string(b)));
    }

    // Cores with their private hierarchies.
    store_.store<std::uint64_t>(kIdleEntry, isa::encode(isa::Instr{}));  // HALT.
    for (unsigned i = 0; i < config_.numCores; ++i) {
        const std::string cpu = "system.cpu" + std::to_string(i);
        OooCoreParams coreParams = config_.core;
        coreParams.clockPeriod = config_.coreClock;
        coreParams.stronglyOrdered.push_back(config_.deviceRangeAll());
        cores_.push_back(std::make_unique<OooCore>(sim_, cpu, coreParams, kIdleEntry));
        l1i_.push_back(std::make_unique<Cache>(sim_, cpu + ".l1i", config_.l1iParams()));
        l1d_.push_back(std::make_unique<Cache>(sim_, cpu + ".l1d", config_.l1dParams()));
        l2_.push_back(std::make_unique<Cache>(sim_, cpu + ".l2", config_.l2Params()));

        cores_.back()->icachePort().bind(l1i_.back()->cpuSidePort());
        cores_.back()->dcachePort().bind(l1d_.back()->cpuSidePort());
        // Both L1s feed the private L2 through the crossbar-free local path:
        // a tiny per-core bus is modelled by routing through the L2's single
        // cpu-side port via an L1 mux crossbar.
        // Keep it simple and faithful: L1I and L1D each get a system-xbar
        // port only through L2, so join them with a per-core mux xbar.
        auto mux = std::make_unique<Xbar>(sim_, cpu + ".l1bus", config_.nocParams());
        l1i_.back()->memSidePort().bind(mux->addCpuSidePort("l1i"));
        l1d_.back()->memSidePort().bind(mux->addCpuSidePort("l1d"));
        mux->addMemSidePort("l2", RouteSpec{AddrRange{0, ~Addr{0}}})
            .bind(l2_.back()->cpuSidePort());
        l1Muxes_.push_back(std::move(mux));

        l2_.back()->memSidePort().bind(systemXbar_->addCpuSidePort("cpu" + std::to_string(i)));
    }

    // PMU wiring: core 0 and its L1D drive the classic Fig. 5 event lines
    // (four commit lanes + L1D miss). Additional cores each get their own
    // commit-count line starting at line 8, so one PMU can monitor the
    // whole processor ("the possibility to have multiple cores connected to
    // the PMU").
    if (!cores_.empty()) {
        cores_[0]->setEventBus(&eventBus_);
        l1d_[0]->setMissEvent(&eventBus_, HwEventBus::kL1dMiss);
        for (unsigned i = 1; i < cores_.size(); ++i) {
            const unsigned line = 8 + (i - 1);
            if (line < HwEventBus::kLines) {
                cores_[i]->setEventBus(&eventBus_, line, /*spreadAcrossLanes=*/false);
            }
        }
    }

    // Strict elaboration lint: a miswired interconnect should fail loudly
    // here, not as a "no route for address" panic mid-simulation.
    if (config_.elaborationLint) {
        const lint::Report report = elaborationLint();
        if (report.hasErrors()) {
            std::ostringstream os;
            os << "SoC elaboration lint failed:\n";
            lint::emitText(report, os);
            panicStream(os.str());
        }
    }

    // Observability last, once the topology exists. The thread's run label
    // (set by the parallel experiment runner) names the trace file, so
    // concurrent sweep points each write their own file.
    obs_ = obs::ObsSession::create(sim_, obs::ObsOptions::fromEnv(config_.obs),
                                   logRunLabel());
    if (obs_ != nullptr) {
        for (const char* statName : {"reqsRouted", "respsRouted", "layerConflicts"}) {
            if (const auto* s = systemXbar_->statsGroup().find(statName)) {
                obs_->addCounter(*s);
            }
            if (const auto* s = memBus_->statsGroup().find(statName)) {
                obs_->addCounter(*s);
            }
        }
    }
}

lint::Report Soc::elaborationLint() const {
    lint::Report report;
    lint::lintXbar(*systemXbar_, report);
    lint::lintXbar(*memBus_, report);
    for (const auto& mux : l1Muxes_) lint::lintXbar(*mux, report);
    // Every byte of main memory must be reachable from the cores (through
    // the LLC banks) and from the LLC (through the memory bus).
    lint::lintRouteCoverage(*systemXbar_, config_.memRange, report);
    lint::lintRouteCoverage(*memBus_, config_.memRange, report);
    for (const auto& [idx, path] : memPaths_) {
        lint::lintXbar(*path.bus, report);
        lint::lintRouteCoverage(*path.bus, config_.memRange, report);
        lint::lintDmaSpmPath(*path.dma, *path.spm, config_.memRange, report);
    }
    return report;
}

void Soc::loadProgram(unsigned coreId, const isa::Program& program, Addr base) {
    simAssert(coreId < cores_.size(), "no such core");
    for (std::size_t i = 0; i < program.code.size(); ++i) {
        store_.store<std::uint64_t>(base + i * isa::kInstrBytes, program.code[i]);
    }
    cores_[coreId]->setEntry(base);
    ++runningCores_;
    cores_[coreId]->setExitCallback([this] { coreExited(); });
}

void Soc::coreExited() {
    simAssert(runningCores_ > 0, "core exit underflow");
    if (--runningCores_ == 0) sim_.exitSimLoop("all program cores exited");
}

RtlObject& Soc::attachRtlModel(const std::string& name, std::unique_ptr<RtlModel> model,
                               const RtlObjectParams& params, MemPorts memPorts,
                               bool wireEventBus) {
    const unsigned idx = attachedModels_++;
    rtlObjects_.push_back(std::make_unique<RtlObject>(
        sim_, "system." + name, params, std::move(model),
        wireEventBus ? &eventBus_ : nullptr));
    RtlObject& obj = *rtlObjects_.back();

    // CSB window on the system crossbar (reachable from the cores through
    // their uncacheable device aperture).
    systemXbar_->addMemSidePort(name + "_csb", RouteSpec{config_.deviceRange(idx)})
        .bind(obj.cpuSidePort(0));

    if (memPorts != MemPorts::kNone) {
        if (memPorts == MemPorts::kMainMemory && config_.memPath == MemPath::kDmaSpm) {
            // dmaSpm memory path: the DBBIF sees a private banked SPM; a DMA
            // engine stages the working set there (and drains results back)
            // with its own deep request window against the memory bus.
            MemPathObjs& path = memPaths_[idx];
            path.bus = std::make_unique<Xbar>(sim_, "system." + name + ".spmbus",
                                              config_.nocParams());

            Spm::Params spmParams;
            spmParams.range = config_.memRange;
            spmParams.clockPeriod = config_.coreClock;
            spmParams.accessLatency = config_.spmAccessLatency;
            spmParams.banks = config_.spmBanks;
            spmParams.maxPending = config_.spmMaxPending;
            path.spm = std::make_unique<Spm>(sim_, "system." + name + ".spm", spmParams);

            DmaEngine::Params dmaParams;
            dmaParams.clockPeriod = config_.rtlClock;
            dmaParams.maxInflight = config_.dmaMaxInflight;
            path.dma = std::make_unique<DmaEngine>(sim_, "system." + name + ".dma",
                                                   dmaParams);

            obj.memSidePort(0).bind(path.bus->addCpuSidePort(name + "_dbbif"));
            path.dma->spmPort().bind(path.bus->addCpuSidePort(name + "_dma_stage"));
            path.bus->addMemSidePort("spm", RouteSpec{config_.memRange})
                .bind(path.spm->cpuSidePort());
            path.spm->memSidePort().bind(memBus_->addCpuSidePort(name + "_spmfill"));
            path.dma->memPort().bind(memBus_->addCpuSidePort(name + "_dma"));
            obj.memSidePort(1).bind(memBus_->addCpuSidePort(name + "_sramif"));
        } else if (memPorts == MemPorts::kMainMemory) {
            obj.memSidePort(0).bind(memBus_->addCpuSidePort(name + "_dbbif"));
            obj.memSidePort(1).bind(memBus_->addCpuSidePort(name + "_sramif"));
        } else {
            obj.memSidePort(0).bind(memBus_->addCpuSidePort(name + "_dbbif"));
            // The paper's proposed extension: "hook a proper SRAM such as a
            // scratchpad memory to the SRAMIF interface". Point-to-point,
            // low latency, private backing store.
            Scratchpad& pad = scratchpads_[idx];
            pad.store = std::make_unique<BackingStore>();
            SimpleMemory::Params sp;
            sp.range = config_.memRange;  // Sees only port-1 traffic.
            sp.clockPeriod = config_.coreClock;
            sp.latency = 2 * config_.coreClock;  // SRAM-class latency.
            sp.maxPending = 64;
            pad.mem = std::make_unique<SimpleMemory>(
                sim_, "system." + name + ".scratchpad", sp, *pad.store);
            obj.memSidePort(1).bind(pad.mem->port());
        }
    }
    if (obs_ != nullptr) {
        if (const auto* s = obj.statsGroup().find("outstandingHist")) obs_->addCounter(*s);
        if (const auto* s = obj.statsGroup().find("gatedTicks")) obs_->addCounter(*s);
        const auto it = memPaths_.find(idx);
        if (it != memPaths_.end()) {
            for (const char* statName : {"readHits", "readMisses"}) {
                if (const auto* s = it->second.spm->statsGroup().find(statName)) {
                    obs_->addCounter(*s);
                }
            }
            if (const auto* s = it->second.dma->statsGroup().find("descriptors")) {
                obs_->addCounter(*s);
            }
        }
    }
    return obj;
}

BackingStore& Soc::scratchpadStore(unsigned idx) {
    const auto it = scratchpads_.find(idx);
    simAssert(it != scratchpads_.end(), "model has no scratchpad attached");
    return *it->second.store;
}

Spm& Soc::spm(unsigned idx) {
    const auto it = memPaths_.find(idx);
    simAssert(it != memPaths_.end(), "model has no dmaSpm memory path");
    return *it->second.spm;
}

DmaEngine& Soc::dmaEngine(unsigned idx) {
    const auto it = memPaths_.find(idx);
    simAssert(it != memPaths_.end(), "model has no dmaSpm memory path");
    return *it->second.dma;
}

ResponsePort& Soc::addHostPort(const std::string& name) {
    return systemXbar_->addCpuSidePort(name);
}

double Soc::memPeakBandwidth() const {
    double total = 0.0;
    for (const auto& channel : dramChannels_) total += channel->peakBandwidth();
    return total;
}

}  // namespace g5r
