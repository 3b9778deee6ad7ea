// Observability demo: run one fig. 7 design point (1 NVDLA, HBM, 64
// in-flight requests) with Perfetto tracing and host-time profiling on, and
// print where the wall clock went.
//
// Output artefacts:
//   * <dir>/fig7_hbm_q64.trace.json — load it at https://ui.perfetto.dev
//     (dir from GEM5RTL_TRACE=<dir>, default current directory)
//   * <dir>/fig7_hbm_q64.metrics.jsonl — the stats timeline, when
//     GEM5RTL_METRICS=<dir> is set; render it with `g5r stats timeline`
//   * a host-time profile table: RTL eval vs memory system vs queue overhead
//   * per-master memory-bus latency distributions with p50/p99 percentiles
//
// CI runs this with GEM5RTL_TRACE=trace-out GEM5RTL_METRICS=trace-out and
// then validates the emitted trace with tests/obs (TraceCheck.*) and the
// timeline with `g5r stats`.
#include <cstdio>

#include "sim/logging.hh"
#include "soc/experiments.hh"

using namespace g5r;

int main() {
    // The run label names the trace file: fig7_hbm_q64.trace.json.
    const RunLabelScope label{"fig7_hbm_q64"};

    experiments::DseRunConfig cfg;
    cfg.shape = models::sanity3Shape();
    cfg.workloadName = "sanity3";
    cfg.memTech = MemTech::kHbm;
    cfg.numAccelerators = 1;
    cfg.maxInflight = 64;
    cfg.numCores = 0;  // Accelerator-only study, like the fig. 7 sweep.
    cfg.obs.traceEnabled = true;    // GEM5RTL_TRACE can still redirect/disable.
    cfg.obs.profileEnabled = true;  // GEM5RTL_PROFILE likewise.

    const auto result = experiments::runNvdlaDse(cfg);
    std::printf("fig7 point: 1x NVDLA, HBM, 64 in-flight\n");
    std::printf("  completed=%d checksumOk=%d runtimeTicks=%llu\n", result.completed,
                result.checksumsOk, static_cast<unsigned long long>(result.runtimeTicks));

    if (!result.tracePath.empty()) {
        std::printf("\ntrace written to %s (open in Perfetto)\n", result.tracePath.c_str());
    }

    if (result.profile != nullptr) {
        std::printf("\n%s", result.profile->table().c_str());
    }

    if (!result.memLatency.empty()) {
        std::printf("\nmemory-bus round-trip latency per master (ticks):\n");
        for (const auto& [master, lat] : result.memLatency) {
            std::printf("  %-16s count=%-8llu min=%-8.0f mean=%-10.1f p50=%-8.0f "
                        "p99=%-8.0f max=%.0f\n",
                        master.c_str(), static_cast<unsigned long long>(lat.count),
                        lat.minTicks, lat.meanTicks, lat.p50Ticks, lat.p99Ticks,
                        lat.maxTicks);
        }
        std::printf("  %-16s p50=%-8.0f p99=%.0f\n", "(SoC merged)",
                    result.memLatencyP50, result.memLatencyP99);
    }

    if (!result.metricsPath.empty()) {
        std::printf("\nmetrics timeline written to %s (render with g5r stats)\n",
                    result.metricsPath.c_str());
    }
    return result.completed && result.checksumsOk ? 0 : 1;
}
