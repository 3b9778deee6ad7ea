// Table 3 — "Simulation time overhead of gem5+rtl normalized to a standalone
// Verilator simulation with a single NVDLA accelerator."
//
// The baseline is the standalone trace player (the model running against an
// ideal memory with no simulator around it — the analogue of running the
// NVIDIA-provided Verilator wrapper directly). It is compared against the
// same trace executed inside the full SoC with a perfect (1-cycle) memory
// and with the DDR4-4ch configuration, for both workloads. The full-SoC
// runs include the host's trace-load step, which is what makes the shorter
// Sanity3 run proportionally more expensive, as the paper observes.
//
// Each SoC configuration runs twice: with idle-tick quiescence gating (the
// default) and without. The gated/ungated host-time ratios plus a
// runtimeTicks identity check (gating must not move simulated time) are
// serialized to BENCH_table3.json alongside the normalized overheads.
//
// Every row is timed rep by rep, interleaved with the others, and judged by
// its best rep, so a burst of host noise lands on one rep of every row
// rather than on all reps of one row. A standalone rep repeats the short
// bare-model run for at least 100 ms and reports the time per run. Both sides of each ratio take their
// traces from the process-wide cache (models::sharedConvTrace) inside the
// timed region: only the first request for each trace pays its build, and
// the best rep leaves that one-off out of every row.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>

#include "exp/bench_report.hh"
#include "models/nvdla/standalone.hh"
#include "obs/diff.hh"
#include "soc/experiments.hh"
#include "soc/model_loader.hh"

using namespace g5r;

namespace {

double wallSeconds(const std::function<void()>& fn) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// One timed row: its best rep, plus what the SoC reps verified.
struct Row {
    double wallSeconds = std::numeric_limits<double>::infinity();  ///< Best rep.
    Tick runtimeTicks = 0;     ///< Simulated time; identical across reps.
    bool verified = true;      ///< Every rep completed with good checksums.
};

void timeRep(Row& row, const std::function<void()>& fn) {
    row.wallSeconds = std::min(row.wallSeconds, wallSeconds(fn));
}

/// Shortest host time one standalone rep spans. A single Sanity3 run takes
/// about 10 ms, so a millisecond of host noise in its best rep moved the
/// ratios it normalises by ~10%; a rep plays the model back to back until
/// this much time has passed and counts the time per run.
constexpr double kMinStandaloneRepSeconds = 0.1;

void standaloneRep(const models::NvdlaShape& shape, Row& row) {
    const auto playOnce = [&] {
        const auto model = loadRtlModel("nvdla");
        const auto trace =
            models::sharedConvTrace("t", shape, models::NvdlaPlacement{}, 0xACE);
        BackingStore mem;
        const auto result = models::playTraceStandalone(*model, *trace, mem);
        if (!result.completed || result.checksum != trace->expectedChecksum) {
            std::printf("WARN: standalone run failed verification\n");
        }
    };
    const auto start = std::chrono::steady_clock::now();
    int runs = 0;
    double seconds = 0;
    do {
        playOnce();
        ++runs;
        seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    } while (seconds < kMinStandaloneRepSeconds);
    row.wallSeconds = std::min(row.wallSeconds, seconds / runs);
}

void socRep(const models::NvdlaShape& shape, MemTech tech, bool gate, Row& row) {
    timeRep(row, [&] {
        experiments::DseRunConfig cfg;
        cfg.shape = shape;
        cfg.memTech = tech;
        cfg.numCores = 1;  // The paper's host application runs on a core.
        cfg.maxInflight = 240;
        cfg.gateIdleTicks = gate;
        const auto result = experiments::runNvdlaDse(cfg);
        if (!result.completed || !result.checksumsOk) {
            std::printf("WARN: SoC run failed verification\n");
            row.verified = false;
        }
        row.runtimeTicks = result.runtimeTicks;
    });
}

// Localize a gated/ungated runtimeTicks mismatch: re-run the pair once with
// flight recording enabled (after all timed runs, so the recorder cannot
// pollute the measurements) and print the first divergent interval. Packet
// lane only — gating removes dispatches by design; memory traffic must not
// change.
void reportGatingDivergence(const char* workload, const models::NvdlaShape& shape,
                            MemTech tech) {
    const auto runRecorded = [&](bool gate) {
        experiments::DseRunConfig cfg;
        cfg.shape = shape;
        cfg.memTech = tech;
        cfg.numCores = 1;
        cfg.maxInflight = 240;
        cfg.gateIdleTicks = gate;
        cfg.obs.recordEnabled = true;
        cfg.obs.recordPath = std::string{"/tmp/g5r_table3_"} + workload +
                             (gate ? "_gated" : "_ungated") + ".g5rec";
        const auto result = experiments::runNvdlaDse(cfg);
        return result.recordPath;
    };
    const std::string gated = runRecorded(true);
    const std::string ungated = runRecorded(false);
    const auto rep =
        obs::diffRecordingFiles(gated, ungated, obs::DiffLane::kPacketsOnly);
    std::printf("%s\n", obs::formatDivergenceReport(rep, "gated", "ungated").c_str());
}

}  // namespace

int main() {
    // Larger shapes than the DSE sweeps: wall-clock ratios need runs long
    // enough that per-run constants do not dominate. Sanity3 is the short
    // job and GoogleNet the long one, as in the paper — that asymmetry is
    // what makes trace loading proportionally heavier for Sanity3.
    const bool full = experiments::fullScaleRequested();
    const unsigned sanityScale = full ? 4 : 2;
    const unsigned googleScale = full ? 12 : 6;
    constexpr int kReps = 5;

    struct Workload {
        const char* name;
        models::NvdlaShape shape;
    };
    const Workload workloads[] = {
        {"Sanity3", models::sanity3Shape(sanityScale)},
        {"GoogleNet", models::googlenetConv2Shape(googleScale)},
    };

    std::printf("# Table 3: simulation-time overhead of gem5+rtl normalized to a\n");
    std::printf("# standalone (Verilator-style) NVDLA simulation, best of %d interleaved "
                "runs\n\n",
                kReps);
    std::printf("%-34s %10s %10s\n", "", "Sanity3", "GoogleNet");

    const auto sweepStart = std::chrono::steady_clock::now();
    Row standalone[2], perfect[2], ddr[2], perfectUngated[2], ddrUngated[2];
    for (int r = 0; r < kReps; ++r) {
        for (int w = 0; w < 2; ++w) {
            const models::NvdlaShape& shape = workloads[w].shape;
            standaloneRep(shape, standalone[w]);
            socRep(shape, MemTech::kIdeal, true, perfect[w]);
            socRep(shape, MemTech::kIdeal, false, perfectUngated[w]);
            socRep(shape, MemTech::kDdr4_4ch, true, ddr[w]);
            socRep(shape, MemTech::kDdr4_4ch, false, ddrUngated[w]);
        }
    }
    const double base[2] = {standalone[0].wallSeconds, standalone[1].wallSeconds};
    const double sweepWall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - sweepStart).count();

    std::printf("%-34s %10.2f %10.2f\n", "gem5+NVDLA+perfect-memory",
                perfect[0].wallSeconds / base[0], perfect[1].wallSeconds / base[1]);
    std::printf("%-34s %10.2f %10.2f\n", "gem5+NVDLA+perfect-mem (ungated)",
                perfectUngated[0].wallSeconds / base[0],
                perfectUngated[1].wallSeconds / base[1]);
    std::printf("%-34s %10.2f %10.2f\n", "gem5+NVDLA+DDR4", ddr[0].wallSeconds / base[0],
                ddr[1].wallSeconds / base[1]);
    std::printf("%-34s %10.2f %10.2f\n", "gem5+NVDLA+DDR4 (ungated)",
                ddrUngated[0].wallSeconds / base[0], ddrUngated[1].wallSeconds / base[1]);
    std::printf("\n# absolute wall seconds: standalone=%.3f/%.3f perfect=%.3f/%.3f "
                "ddr4=%.3f/%.3f\n",
                base[0], base[1], perfect[0].wallSeconds, perfect[1].wallSeconds,
                ddr[0].wallSeconds, ddr[1].wallSeconds);
    std::printf("# gated/ungated host time: perfect=%.3f/%.3f ddr4=%.3f/%.3f\n",
                perfect[0].wallSeconds / perfectUngated[0].wallSeconds,
                perfect[1].wallSeconds / perfectUngated[1].wallSeconds,
                ddr[0].wallSeconds / ddrUngated[0].wallSeconds,
                ddr[1].wallSeconds / ddrUngated[1].wallSeconds);

    int failures = 0;
    auto check = [&](bool ok, const char* what) {
        std::printf("[%s] %s\n", ok ? "PASS" : "WARN", what);
        if (!ok) ++failures;
    };
    check(perfect[0].wallSeconds / base[0] > 1.0 && perfect[1].wallSeconds / base[1] > 1.0,
          "full-system simulation costs more than the standalone player");
    check(ddr[0].wallSeconds >= perfect[0].wallSeconds * 0.9,
          "the detailed DRAM model does not make simulation cheaper");
    // Judged on the perfect-memory configuration: the DDR4 rows carry more
    // wall-clock variance than the effect size on these short default runs.
    check(perfect[0].wallSeconds / base[0] > perfect[1].wallSeconds / base[1],
          "overhead is larger for the short Sanity3 run (trace-load dominates)");
    bool timingNeutral = true;
    for (int w = 0; w < 2; ++w) {
        if (perfect[w].runtimeTicks != perfectUngated[w].runtimeTicks) {
            if (timingNeutral) {
                std::printf("\n# gating broke timing (%s, perfect memory): localizing "
                            "via flight recordings...\n", workloads[w].name);
                reportGatingDivergence(workloads[w].name, workloads[w].shape,
                                       MemTech::kIdeal);
            }
            timingNeutral = false;
        }
        if (ddr[w].runtimeTicks != ddrUngated[w].runtimeTicks) {
            if (timingNeutral) {
                std::printf("\n# gating broke timing (%s, DDR4-4ch): localizing "
                            "via flight recordings...\n", workloads[w].name);
                reportGatingDivergence(workloads[w].name, workloads[w].shape,
                                       MemTech::kDdr4_4ch);
            }
            timingNeutral = false;
        }
    }
    check(timingNeutral, "idle-tick gating is timing-neutral (identical runtimeTicks)");

    // ---- machine-readable results ------------------------------------------
    exp::Json doc = exp::benchDocument("table3", 1);
    doc["sweepWallSeconds"] = sweepWall;
    const struct {
        const char* config;
        const Row* rows;
        bool gated;
    } socConfigs[] = {
        {"gem5+NVDLA+perfect-memory", perfect, true},
        {"gem5+NVDLA+perfect-memory (ungated)", perfectUngated, false},
        {"gem5+NVDLA+DDR4", ddr, true},
        {"gem5+NVDLA+DDR4 (ungated)", ddrUngated, false},
    };
    for (int w = 0; w < 2; ++w) {
        exp::Json entry = exp::Json::object();
        entry["config"] = "standalone";
        entry["workload"] = workloads[w].name;
        entry["wallSeconds"] = base[w];
        doc["points"].push(std::move(entry));
    }
    for (const auto& sc : socConfigs) {
        for (int w = 0; w < 2; ++w) {
            exp::Json entry = exp::Json::object();
            entry["config"] = sc.config;
            entry["workload"] = workloads[w].name;
            entry["gated"] = sc.gated;
            entry["wallSeconds"] = sc.rows[w].wallSeconds;
            entry["runtimeTicks"] = sc.rows[w].runtimeTicks;
            entry["normalizedToStandalone"] =
                base[w] > 0 ? sc.rows[w].wallSeconds / base[w] : 0.0;
            entry["verified"] = sc.rows[w].verified;
            doc["points"].push(std::move(entry));
        }
    }
    // Host-time win from quiescence gating (< 1.0 means gating saved wall
    // clock; simulated time is identical — see gatingTimingNeutral).
    exp::Json gatedRatio = exp::Json::object();
    for (int w = 0; w < 2; ++w) {
        exp::Json per = exp::Json::object();
        per["perfect"] = perfectUngated[w].wallSeconds > 0
                             ? perfect[w].wallSeconds / perfectUngated[w].wallSeconds
                             : 0.0;
        per["ddr4"] = ddrUngated[w].wallSeconds > 0
                          ? ddr[w].wallSeconds / ddrUngated[w].wallSeconds
                          : 0.0;
        gatedRatio[workloads[w].name] = std::move(per);
    }
    doc["gatedVsUngated"] = std::move(gatedRatio);
    doc["gatingTimingNeutral"] = timingNeutral;
    const std::string path = exp::writeBenchJson("BENCH_table3.json", doc);
    if (!path.empty()) {
        std::printf("# wrote %s (%zu points, sweep %.1fs)\n", path.c_str(),
                    doc["points"].size(), sweepWall);
    }
    return failures == 0 ? 0 : 2;
}
