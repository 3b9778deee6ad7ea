#include "soc/experiments.hh"

#include <cstdlib>
#include <memory>

#include "obs/reqtrace.hh"
#include "soc/model_loader.hh"
#include "soc/nvdla_host.hh"
#include "soc/soc.hh"
#include "soc/spm_prefetcher.hh"

namespace g5r::experiments {

bool fullScaleRequested() {
    const char* env = std::getenv("GEM5RTL_FULL");
    return env != nullptr && env[0] != '0';
}

// ------------------------------------------------------------------ Fig 5 --

PmuRunResult runPmuSortExperiment(const PmuRunConfig& config) {
    Simulation sim;
    SocConfig socCfg = table1Config(config.memTech);
    socCfg.numCores = config.numCores;
    socCfg.obs = config.obs;
    Soc soc{sim, socCfg};

    // Workload: the three sorting kernels with sleeps, on core 0.
    const isa::Program program = workloads::sortBenchmarkProgram(config.layout);
    workloads::populateSortArrays(soc.memory(), config.layout);
    soc.loadProgram(0, program);

    std::unique_ptr<PmuObserver> observer;
    RtlObject* pmu = nullptr;
    if (config.attachPmu) {
        RtlObjectParams rp;
        rp.clockPeriod = socCfg.coreClock;  // Count at core resolution (Fig. 5);
                                            // Table 1's 1 GHz ratio is exercised
                                            // in the overhead study instead.
        rp.gateIdleTicks = config.gateIdleTicks;
        pmu = &soc.attachRtlModel("pmu", loadRtlModel("pmu"), rp, Soc::MemPorts::kNone,
                                  /*wireEventBus=*/true);

        PmuObserver::Params op;
        op.pmuBase = soc.deviceBaseOf(0);
        op.clockPeriod = socCfg.coreClock;
        OooCore& core0 = soc.core(0);
        Cache& l1d0 = soc.l1d(0);
        observer = std::make_unique<PmuObserver>(
            sim, "system.pmu_observer", op, [&core0, &l1d0]() -> std::array<double, 3> {
                const double misses = l1d0.statsGroup().find("misses")->value() +
                                      l1d0.statsGroup().find("mshrHits")->value();
                return {static_cast<double>(core0.committedInstructions()),
                        static_cast<double>(core0.cyclesRetired()), misses};
            });
        if (config.programPmu) {
            observer->setConfigWrites(PmuObserver::fig5Config(config.intervalCycles));
        }
        observer->port().bind(soc.addHostPort("pmu_observer"));
        pmu->setIrqCallback([&obs = *observer](bool level) { obs.onIrq(level); });

        if (!config.waveformPath.empty()) pmu->traceStart(config.waveformPath);
    }

    const RunResult run = sim.run(config.maxTicks);

    PmuRunResult result;
    result.completed = run.cause == ExitCause::kSimExit;
    result.finalTick = run.tick;
    result.committedInsts = soc.core(0).committedInstructions();
    result.cycles = soc.core(0).cyclesRetired();
    result.memLatency = obs::portLatencies(soc.memBus().statsGroup());
    {
        const stats::HistogramData merged =
            obs::mergedPortLatencyHistogram(soc.memBus().statsGroup());
        result.memLatencyP50 = merged.p50();
        result.memLatencyP99 = merged.p99();
    }
    if (obs::ObsSession* obsSession = soc.observability()) {
        obsSession->finish();
        result.profile = obsSession->profileReport();
        if (obsSession->recorder() != nullptr && obsSession->recorder()->ok()) {
            result.recordPath = obsSession->recorder()->path();
        }
        if (obsSession->metrics() != nullptr && obsSession->metrics()->ok()) {
            result.metricsPath = obsSession->metrics()->path();
        }
    }

    if (observer != nullptr) {
        result.rawSamples = observer->samples();
        const auto& samples = result.rawSamples;
        for (std::size_t i = 1; i < samples.size(); ++i) {
            const auto& prev = samples[i - 1];
            const auto& cur = samples[i];
            PmuInterval interval;
            interval.timeMs = ticksToMs(cur.irqTick);
            // PMU counters accumulate; the cycle counter resets each
            // interrupt, so the interval length is the threshold.
            const double pmuDeltaInsts =
                static_cast<double>(cur.pmuCommits() - prev.pmuCommits());
            const double pmuDeltaMisses =
                static_cast<double>(cur.pmuL1dMisses() - prev.pmuL1dMisses());
            const double pmuCyclesInInterval = static_cast<double>(config.intervalCycles);
            interval.pmuIpc = pmuDeltaInsts / pmuCyclesInInterval;
            interval.pmuMpki =
                pmuDeltaInsts > 0 ? 1000.0 * pmuDeltaMisses / pmuDeltaInsts : 0.0;

            const double gem5DeltaInsts = cur.gem5Insts - prev.gem5Insts;
            const double gem5DeltaCycles = cur.gem5Cycles - prev.gem5Cycles;
            const double gem5DeltaMisses = cur.gem5L1dMisses - prev.gem5L1dMisses;
            interval.gem5Ipc =
                gem5DeltaCycles > 0 ? gem5DeltaInsts / gem5DeltaCycles : 0.0;
            interval.gem5Mpki =
                gem5DeltaInsts > 0 ? 1000.0 * gem5DeltaMisses / gem5DeltaInsts : 0.0;

            result.maxAbsIpcError =
                std::max(result.maxAbsIpcError, std::abs(interval.pmuIpc - interval.gem5Ipc));
            result.intervals.push_back(interval);
        }
    }
    return result;
}

// --------------------------------------------------------------- Figs 6/7 --

DseRunResult runNvdlaDse(const DseRunConfig& config) {
    Simulation sim;
    SocConfig socCfg = table1Config(config.memTech);
    socCfg.numCores = config.numCores;
    socCfg.memPath = config.memPath;
    if (config.dmaMaxInflight > 0) socCfg.dmaMaxInflight = config.dmaMaxInflight;
    socCfg.obs = config.obs;
    // Stage blame is part of every DSE result, so request tracing is always
    // on — in-memory ("-": no sidecar) unless the caller already configured
    // it or the GEM5RTL_REQTRACE overlay (applied inside Soc) speaks for
    // itself. It is not free: `perfbench/run.py --workload fig7_dse --trace 1`
    // puts it at 6-25% of job time (median 11%, 3 runs on a 4-vCPU host);
    // result collection, computeBlame included, takes about 285 ms of a
    // 44-point job (EXPERIMENTS.md, host time per workload).
    if (!socCfg.obs.reqtraceEnabled && std::getenv("GEM5RTL_REQTRACE") == nullptr) {
        socCfg.obs.reqtraceEnabled = true;
        socCfg.obs.reqtracePath = "-";
    }
    Soc soc{sim, socCfg};

    const bool dmaSpm = config.memPath == MemPath::kDmaSpm;
    struct Instance {
        RtlObject* rtl = nullptr;
        std::unique_ptr<NvdlaHost> host;
        std::unique_ptr<SpmPrefetcher> prefetcher;
        models::NvdlaPlacement placement;
        Tick doneTick = 0;  ///< Checksum read (direct) or ofmap drained (dmaSpm).
    };
    std::vector<Instance> instances(config.numAccelerators);

    unsigned remaining = config.numAccelerators;
    for (unsigned i = 0; i < config.numAccelerators; ++i) {
        models::NvdlaPlacement placement;
        placement.ifmapBase = 0x2000'0000ULL + i * 0x0400'0000ULL;
        placement.weightBase = placement.ifmapBase + 0x0100'0000ULL;
        placement.ofmapBase = placement.ifmapBase + 0x0200'0000ULL;

        Instance& inst = instances[i];
        inst.placement = placement;
        // Instance i draws the same trace in every point of a sweep, so all
        // but the first point of a process share it (sharedConvTrace).
        const auto trace = models::sharedConvTrace(config.workloadName + std::to_string(i),
                                                   config.shape, placement, 0x5EED + i,
                                                   config.sramScratchpad);

        RtlObjectParams rp;
        rp.clockPeriod = socCfg.rtlClock;  // NVDLA at 1 GHz (Table 1).
        rp.maxInflight = config.maxInflight;
        rp.gateIdleTicks = config.gateIdleTicks;
        inst.rtl = &soc.attachRtlModel("nvdla" + std::to_string(i), loadRtlModel("nvdla"),
                                       rp,
                                       config.sramScratchpad
                                           ? Soc::MemPorts::kWithScratchpad
                                           : Soc::MemPorts::kMainMemory,
                                       /*wireEventBus=*/false);
        if (config.sramScratchpad) {
            // Weights live in the scratchpad; stage them there directly (the
            // host-side DMA into SRAM is not part of the measured run).
            const auto& weights = trace->segments[1];
            soc.scratchpadStore(i).write(weights.addr, weights.bytes.data(),
                                         static_cast<unsigned>(weights.bytes.size()));
        }

        NvdlaHost::Params hp;
        hp.csbBase = soc.deviceBaseOf(i);
        hp.clockPeriod = socCfg.coreClock;
        hp.waitForRelease = dmaSpm;  // CSB programming waits for the prefetch.
        inst.host = std::make_unique<NvdlaHost>(sim, "system.host" + std::to_string(i),
                                                hp, trace);
        inst.host->port().bind(soc.addHostPort("host" + std::to_string(i)));
        if (dmaSpm) {
            // Stage the working set into the SPM, release the host once it is
            // resident, and after the checksum readback drain the ofmap back
            // to main memory — that drain is the instance's finish line.
            inst.prefetcher = std::make_unique<SpmPrefetcher>(
                sim, "system.prefetch" + std::to_string(i), soc.dmaEngine(i), trace);
            inst.prefetcher->setParentRequest(inst.host->requestId());
            inst.prefetcher->setDoneCallback([&inst] { inst.host->release(); });
            inst.host->setDoneCallback([&inst, &soc, &sim, &remaining, i,
                                        &shape = config.shape] {
                DmaEngine::Descriptor drain{
                    inst.placement.ofmapBase, inst.placement.ofmapBase,
                    shape.ofmapBytes(), DmaEngine::Direction::kSpmToMem,
                    [&inst, &sim, &remaining] {
                        inst.doneTick = sim.curTick();
                        if (--remaining == 0) sim.exitSimLoop("all accelerators done");
                    }};
                // The ofmap drain is part of the job's end-to-end window.
                drain.parent = inst.host->requestId();
                soc.dmaEngine(i).enqueue(std::move(drain));
            });
        } else {
            inst.host->setDoneCallback([&inst, &sim, &remaining] {
                inst.doneTick = sim.curTick();
                if (--remaining == 0) sim.exitSimLoop("all accelerators done");
            });
        }
    }

    const RunResult run = sim.run(config.maxTicks);

    DseRunResult result;
    result.completed = run.cause == ExitCause::kSimExit && remaining == 0;
    result.checksumsOk = true;
    Tick last = 0;
    for (auto& inst : instances) {
        result.checksumsOk = result.checksumsOk && inst.host->checksumOk();
        result.perAcceleratorTicks.push_back(inst.doneTick);
        last = std::max(last, inst.doneTick);
    }
    result.runtimeTicks = last;
    if (!instances.empty()) {
        if (const auto* s = instances[0].rtl->statsGroup().find("outstandingHist")) {
            result.avgOutstanding = s->value();
        }
        if (dmaSpm) {
            const stats::Group& spmStats = soc.spm(0).statsGroup();
            if (const auto* s = spmStats.find("readHits")) result.spmReadHits = s->value();
            if (const auto* s = spmStats.find("readMisses")) {
                result.spmReadMisses = s->value();
            }
            if (const auto* s = spmStats.find("mshrJoins")) {
                result.spmMshrJoins = s->value();
            }
            result.dmaDescriptors = soc.dmaEngine(0).descriptorsCompleted();
            if (const auto* h = dynamic_cast<const stats::Histogram*>(
                    soc.dmaEngine(0).statsGroup().find("descriptorLatency"))) {
                result.dmaLatencyP50 = h->quantile(0.50);
                result.dmaLatencyP99 = h->quantile(0.99);
                result.dmaLatencyMax = h->maxValue();
            }
        }
    }
    result.memLatency = obs::portLatencies(soc.memBus().statsGroup());
    {
        const stats::HistogramData merged =
            obs::mergedPortLatencyHistogram(soc.memBus().statsGroup());
        result.memLatencyP50 = merged.p50();
        result.memLatencyP99 = merged.p99();
    }
    if (obs::ObsSession* obsSession = soc.observability()) {
        obsSession->finish();
        result.profile = obsSession->profileReport();
        if (obsSession->trace() != nullptr && obsSession->trace()->ok()) {
            result.tracePath = obsSession->trace()->path();
        }
        if (obsSession->recorder() != nullptr && obsSession->recorder()->ok()) {
            result.recordPath = obsSession->recorder()->path();
        }
        if (obsSession->metrics() != nullptr && obsSession->metrics()->ok()) {
            result.metricsPath = obsSession->metrics()->path();
        }
        if (obs::ReqTraceSession* rt = obsSession->reqtrace()) {
            if (rt->ok() && !rt->path().empty()) result.reqtracePath = rt->path();
            const obs::BlameSummary blame = obs::computeBlame(rt->data());
            for (unsigned s = 0; s < kNumReqStages; ++s) {
                result.stageBlame.emplace_back(
                    reqStageName(static_cast<ReqStage>(s)),
                    static_cast<double>(blame.stageTicks[s]));
            }
            result.stageBlame.emplace_back("unattributed",
                                           static_cast<double>(blame.unattributed));
        }
    }
    return result;
}

}  // namespace g5r::experiments
