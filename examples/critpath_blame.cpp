// Request-tracing smoke: critical-path stage blame at the fig. 7 starved
// point (1 NVDLA, DDR4-1ch, 1 in-flight DBBIF request).
//
// Runs three simulations, each writing a .reqtrace.jsonl sidecar:
//   direct   — the direct DBBIF path
//   dmaSpm/8 — DMA + SPM staging with a narrow 8-line DMA window
//   dmaSpm/64— same point with the default 64-line window
//
// then prints each run's blame table (via the `g5r critpath` library) and
// exits non-zero unless:
//   * every run completed with a verified checksum,
//   * per-stage blame sums to exactly 100% of every request window
//     (`g5r critpath --assert-sum` on each sidecar),
//   * the dmaSpm win over direct shows up as blame: the direct path spends
//     a larger share in dramService+xbarQueue than the staged path,
//   * widening the DMA in-flight window shrinks staging blame:
//     dmaStage+spmFill ticks at window 64 < at window 8.
//
// CI runs this as the request-tracing gate and uploads the sidecars plus
// the JSON reports it leaves behind.
#include <cstdio>
#include <string>

#include "obs/critpath_cli.hh"
#include "soc/experiments.hh"

using namespace g5r;

namespace {

double blamed(const experiments::DseRunResult& r, const char* stage) {
    for (const auto& [name, ticks] : r.stageBlame) {
        if (name == stage) return ticks;
    }
    return 0;
}

double blameTotal(const experiments::DseRunResult& r) {
    double total = 0;
    for (const auto& [name, ticks] : r.stageBlame) total += ticks;
    return total;
}

}  // namespace

int main() {
    experiments::DseRunConfig cfg;
    cfg.shape = models::sanity3Shape();
    cfg.workloadName = "sanity3";
    cfg.memTech = MemTech::kDdr4_1ch;
    cfg.numAccelerators = 1;
    cfg.maxInflight = 1;  // Starved DBBIF: the fig. 7 worst case.
    cfg.numCores = 0;
    cfg.obs.reqtraceEnabled = true;

    struct Run {
        const char* label;
        std::string sidecar;
        experiments::DseRunResult result;
    };
    Run runs[3] = {{"direct", "critpath_direct.reqtrace.jsonl", {}},
                   {"dmaSpm/w8", "critpath_dmaspm_w8.reqtrace.jsonl", {}},
                   {"dmaSpm/w64", "critpath_dmaspm_w64.reqtrace.jsonl", {}}};

    cfg.memPath = MemPath::kDirect;
    cfg.obs.reqtracePath = runs[0].sidecar;
    runs[0].result = experiments::runNvdlaDse(cfg);

    cfg.memPath = MemPath::kDmaSpm;
    cfg.dmaMaxInflight = 8;
    cfg.obs.reqtracePath = runs[1].sidecar;
    runs[1].result = experiments::runNvdlaDse(cfg);

    cfg.dmaMaxInflight = 64;
    cfg.obs.reqtracePath = runs[2].sidecar;
    runs[2].result = experiments::runNvdlaDse(cfg);

    int failures = 0;
    const auto check = [&failures](bool ok, const char* what) {
        std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", what);
        if (!ok) ++failures;
    };

    std::printf("fig7 starved point: 1x NVDLA sanity3, DDR4-1ch, 1 in-flight request\n");
    for (Run& run : runs) {
        const auto& r = run.result;
        std::printf("\n== %s: runtimeTicks=%llu ==\n", run.label,
                    static_cast<unsigned long long>(r.runtimeTicks));
        const double total = blameTotal(r);
        for (const auto& [stage, ticks] : r.stageBlame) {
            if (ticks <= 0) continue;
            std::printf("  %-13s %16.0f  %6.2f%%\n", stage.c_str(), ticks,
                        total > 0 ? 100.0 * ticks / total : 0.0);
        }
        check(r.completed && r.checksumsOk, "run completed, checksum verified");

        // The CLI re-derives blame from the sidecar and re-checks the
        // sums-to-100% invariant per request; exercise it end to end.
        const char* argv[] = {"critpath", "--assert-sum", run.sidecar.c_str()};
        check(obs::critpathCliMain(3, argv) == 0,
              "g5r critpath --assert-sum on the sidecar");
    }

    const auto dramShare = [](const experiments::DseRunResult& r) {
        const double total = blameTotal(r);
        return total > 0
                   ? (blamed(r, "dramService") + blamed(r, "xbarQueue")) / total
                   : 0.0;
    };
    std::printf("\nmemory-system blame share: direct %.1f%%, dmaSpm %.1f%%\n",
                100 * dramShare(runs[0].result), 100 * dramShare(runs[2].result));
    check(dramShare(runs[0].result) > dramShare(runs[2].result),
          "staging shifts blame off dramService+xbarQueue (the dmaSpm win)");

    const double staging8 =
        blamed(runs[1].result, "dmaStage") + blamed(runs[1].result, "spmFill");
    const double staging64 =
        blamed(runs[2].result, "dmaStage") + blamed(runs[2].result, "spmFill");
    std::printf("staging blame (dmaStage+spmFill): window 8 = %.0f, window 64 = %.0f\n",
                staging8, staging64);
    check(staging64 < staging8,
          "a deeper DMA in-flight window shrinks dmaStage+spmFill blame");

    return failures == 0 ? 0 : 1;
}
