// Shared driver for the Figures 6 and 7 design-space explorations.
//
// For one workload, sweeps {1,2,4} accelerator instances x the five memory
// technologies x the in-flight-request cap, normalises every point to the
// ideal 1-cycle-memory run with the same instance count and cap, and prints
// one panel per instance count in the paper's layout. Ends with qualitative
// shape checks against the paper's findings.
//
// The sweep points are independent simulations, so they fan out over the
// parallel experiment runner (src/exp/): one task per (instances, in-flight)
// column, each running the ideal-memory baseline plus the five technologies
// serially inside the task. Results assemble in submission order, so panel
// text is bit-identical whatever --jobs is. Each sweep also serializes to a
// machine-readable BENCH_<figure>.json results document.
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "exp/bench_report.hh"
#include "exp/runner.hh"
#include "soc/experiments.hh"

namespace g5r::bench {

struct DsePoint {
    double normalized = 0;
    Tick runtime = 0;
    /// Each instance's finish tick, so a gate sees two instances swap.
    std::vector<Tick> perAcceleratorTicks;
    double wallSeconds = 0;   ///< Host seconds for this one simulation.
    bool ok = false;
    std::string error;        ///< Why the point failed, when it did.

    /// Per-master memory-bus latency summaries (always collected).
    std::vector<std::pair<std::string, obs::LatencySummary>> memLatency;
    /// SoC-wide latency percentiles (merged per-master histograms).
    double memLatencyP50 = 0;
    double memLatencyP99 = 0;
    /// Host-time profile, only when GEM5RTL_PROFILE (or config) enabled it.
    std::shared_ptr<const obs::ProfileReport> profile;

    /// dmaSpm-path stats (zero on direct-path points).
    double spmReadHits = 0;
    double spmReadMisses = 0;
    double spmMshrJoins = 0;
    std::uint64_t dmaDescriptors = 0;
    double dmaLatencyP50 = 0;  ///< Per-descriptor latency percentiles, ticks.
    double dmaLatencyP99 = 0;
    double dmaLatencyMax = 0;

    /// Critical-path stage blame (stage name -> blamed ticks, "unattributed"
    /// last); populated on every point since DSE runs always trace.
    std::vector<std::pair<std::string, double>> stageBlame;
};

using Series = std::map<unsigned, DsePoint>;  // inflight -> point.

struct DseResults {
    // [numAccel][tech] -> series over the in-flight sweep.
    std::map<unsigned, std::map<MemTech, Series>> panels;
    // Same layout for the DMA + SPM staging path (memPath == kDmaSpm),
    // normalised against the same direct-path ideal run.
    std::map<unsigned, std::map<MemTech, Series>> dmaSpmPanels;
    std::map<unsigned, Series> ideal;  // [numAccel] -> ideal runtimes.
    double sweepWallSeconds = 0;       ///< Whole-sweep wall clock.
    unsigned jobs = 1;                 ///< Worker threads used.
};

/// One (instances, in-flight) column: the ideal baseline plus every
/// technology over both memory paths, normalised against that baseline.
struct DseColumn {
    DsePoint ideal;
    std::map<MemTech, DsePoint> techs;
    std::map<MemTech, DsePoint> dmaSpm;
};

inline DseColumn runDseColumn(const models::NvdlaShape& shape,
                              const std::string& workloadName, unsigned numAccel,
                              unsigned inflight) {
    experiments::DseRunConfig cfg;
    cfg.shape = shape;
    cfg.workloadName = workloadName;
    cfg.numAccelerators = numAccel;
    cfg.maxInflight = inflight;
    cfg.numCores = 0;  // Idle cores contribute nothing to this study.

    const auto timed = [](const experiments::DseRunConfig& c, double& wallSeconds) {
        const auto start = std::chrono::steady_clock::now();
        const auto run = experiments::runNvdlaDse(c);
        wallSeconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        return run;
    };

    DseColumn column;
    cfg.memTech = MemTech::kIdeal;
    const auto idealRun = timed(cfg, column.ideal.wallSeconds);
    column.ideal.normalized = 1.0;
    column.ideal.runtime = idealRun.runtimeTicks;
    column.ideal.perAcceleratorTicks = idealRun.perAcceleratorTicks;
    column.ideal.ok = idealRun.completed && idealRun.checksumsOk;
    column.ideal.memLatency = idealRun.memLatency;
    column.ideal.memLatencyP50 = idealRun.memLatencyP50;
    column.ideal.memLatencyP99 = idealRun.memLatencyP99;
    column.ideal.profile = idealRun.profile;
    column.ideal.stageBlame = idealRun.stageBlame;

    for (const MemPath memPath : {MemPath::kDirect, MemPath::kDmaSpm}) {
        cfg.memPath = memPath;
        for (const MemTech tech : experiments::memTechSeries()) {
            cfg.memTech = tech;
            DsePoint point;
            const auto run = timed(cfg, point.wallSeconds);
            point.runtime = run.runtimeTicks;
            point.perAcceleratorTicks = run.perAcceleratorTicks;
            point.ok = run.completed && run.checksumsOk;
            point.normalized = experiments::normalizedPerf(idealRun, run);
            point.memLatency = run.memLatency;
            point.memLatencyP50 = run.memLatencyP50;
            point.memLatencyP99 = run.memLatencyP99;
            point.profile = run.profile;
            point.spmReadHits = run.spmReadHits;
            point.spmReadMisses = run.spmReadMisses;
            point.spmMshrJoins = run.spmMshrJoins;
            point.dmaDescriptors = run.dmaDescriptors;
            point.dmaLatencyP50 = run.dmaLatencyP50;
            point.dmaLatencyP99 = run.dmaLatencyP99;
            point.dmaLatencyMax = run.dmaLatencyMax;
            point.stageBlame = run.stageBlame;
            (memPath == MemPath::kDirect ? column.techs : column.dmaSpm)[tech] = point;
        }
    }
    return column;
}

inline DseResults runDseSweep(const models::NvdlaShape& shape,
                              const std::string& workloadName,
                              const std::vector<unsigned>& accelCounts,
                              unsigned jobs = 1) {
    // One task per (instances, in-flight) column, in the historical nested
    // loop order; the runner returns them in that same order.
    std::vector<exp::Task<DseColumn>> tasks;
    std::vector<std::pair<unsigned, unsigned>> keys;
    for (const unsigned n : accelCounts) {
        for (const unsigned inflight : experiments::inflightSweep()) {
            keys.emplace_back(n, inflight);
            tasks.push_back(exp::Task<DseColumn>{
                workloadName + "/n" + std::to_string(n) + "/q" + std::to_string(inflight),
                [&shape, &workloadName, n, inflight] {
                    return runDseColumn(shape, workloadName, n, inflight);
                }});
        }
    }

    const auto sweepStart = std::chrono::steady_clock::now();
    const auto outcomes = exp::runTasks(std::move(tasks), jobs);

    DseResults results;
    results.jobs = exp::resolveJobs(jobs);
    results.sweepWallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - sweepStart).count();
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const auto& [n, inflight] = keys[i];
        const auto& outcome = outcomes[i];
        if (outcome.ok) {
            results.ideal[n][inflight] = outcome.value.ideal;
            for (const auto& [tech, point] : outcome.value.techs) {
                results.panels[n][tech][inflight] = point;
            }
            for (const auto& [tech, point] : outcome.value.dmaSpm) {
                results.dmaSpmPanels[n][tech][inflight] = point;
            }
        } else {
            // A failed column stays in the tables as not-ok points carrying
            // the error, so the sweep reports it without losing neighbours.
            DsePoint failed;
            failed.error = outcome.error;
            failed.wallSeconds = outcome.wallSeconds;
            results.ideal[n][inflight] = failed;
            for (const MemTech tech : experiments::memTechSeries()) {
                results.panels[n][tech][inflight] = failed;
                results.dmaSpmPanels[n][tech][inflight] = failed;
            }
        }
    }
    return results;
}

inline int printAndCheckDse(const DseResults& results, const std::string& figure,
                            const std::string& workloadName) {
    std::printf("# %s: design-space exploration, %s workload\n", figure.c_str(),
                workloadName.c_str());
    std::printf("# performance normalized to an ideal 1-cycle main memory\n");

    bool allOk = true;
    for (const auto& [n, techs] : results.panels) {
        std::printf("\n(%c) %u NVDLA accelerator%s\n",
                    static_cast<char>('a' + (n == 1 ? 0 : (n == 2 ? 1 : 2))), n,
                    n == 1 ? "" : "s");
        std::printf("%-10s", "maxreq");
        for (const unsigned inflight : experiments::inflightSweep()) {
            std::printf(" %7u", inflight);
        }
        std::printf("\n");
        for (const MemTech tech : experiments::memTechSeries()) {
            std::printf("%-10s", memTechName(tech));
            for (const unsigned inflight : experiments::inflightSweep()) {
                const DsePoint& p = techs.at(tech).at(inflight);
                std::printf(" %7.3f", p.normalized);
                allOk = allOk && p.ok;
            }
            std::printf("\n");
        }
        // The DMA + SPM staging rows, same normalisation baseline.
        for (const MemTech tech : experiments::memTechSeries()) {
            std::printf("%-10s", (std::string(memTechName(tech)) + "+spm").c_str());
            for (const unsigned inflight : experiments::inflightSweep()) {
                const DsePoint& p = results.dmaSpmPanels.at(n).at(tech).at(inflight);
                std::printf(" %7.3f", p.normalized);
                allOk = allOk && p.ok;
            }
            std::printf("\n");
        }
    }

    // ---- qualitative shape checks (the paper's findings) -------------------
    int failures = 0;
    auto check = [&](bool ok, const std::string& what) {
        std::printf("[%s] %s\n", ok ? "PASS" : "WARN", what.c_str());
        if (!ok) ++failures;
    };
    auto at = [&](unsigned n, MemTech tech, unsigned inflight) {
        return results.panels.at(n).at(tech).at(inflight).normalized;
    };
    auto atSpm = [&](unsigned n, MemTech tech, unsigned inflight) {
        return results.dmaSpmPanels.at(n).at(tech).at(inflight).normalized;
    };

    check(allOk, "every run completed with a verified datapath checksum");

    // The PR 9 memory-path axis: staging through DMA + SPM decouples the
    // accelerator from DRAM latency, so at a starved in-flight window it
    // must beat the direct DBBIF path somewhere in the sweep.
    {
        bool spmWinsSomewhere = false;
        for (const auto& [n, techs] : results.dmaSpmPanels) {
            for (const auto& [tech, series] : techs) {
                for (const auto& [inflight, p] : series) {
                    spmWinsSomewhere =
                        spmWinsSomewhere ||
                        (p.ok && p.normalized > at(n, tech, inflight));
                }
            }
        }
        check(spmWinsSomewhere,
              "DMA+SPM staging beats the direct path for some configuration");
        check(atSpm(1, MemTech::kDdr4_1ch, 1) > at(1, MemTech::kDdr4_1ch, 1),
              "at 1 in-flight request, SPM staging hides DDR4-1ch latency");
    }

    // Starvation: one permitted request cripples every technology.
    check(at(1, MemTech::kHbm, 1) < 0.4, "1 in-flight request is latency-crippled");

    // The paper's headline: >= 64 in-flight requests needed to perform well.
    check(at(1, MemTech::kHbm, 64) > 0.85,
          "64 in-flight requests suffice on high-bandwidth memory (1 instance)");
    check(at(1, MemTech::kHbm, 64) > at(1, MemTech::kHbm, 4) + 0.2,
          "a deep in-flight window is essential (64 far better than 4)");

    // Technology ordering at full concurrency, 4 instances.
    if (results.panels.count(4) > 0) {
        check(at(4, MemTech::kDdr4_1ch, 240) < at(4, MemTech::kDdr4_4ch, 240),
              "with 4 instances, DDR4-1ch is clearly worse than DDR4-4ch");
        check(at(4, MemTech::kDdr4_4ch, 240) < at(4, MemTech::kHbm, 240) + 1e-9,
              "with 4 instances, HBM is at least as good as DDR4-4ch");
        // Scaling pressure: 4 instances do worse (normalized) than 1 on DDR4.
        check(at(4, MemTech::kDdr4_1ch, 240) < at(1, MemTech::kDdr4_1ch, 240),
              "DDR4-1ch degrades as instances are added");
    }
    return failures;
}

/// Serialize a DSE sweep to BENCH_<figure>.json: one entry per sweep point
/// (tech "ideal" included) with runtime ticks (overall and per instance),
/// wall seconds, normalized perf, and checksum status, plus host/config
/// metadata.
inline void writeDseBenchJson(const DseResults& results, const std::string& benchName,
                              const std::string& filename,
                              const std::string& workloadName) {
    exp::Json doc = exp::benchDocument(benchName, results.jobs);
    doc["workload"] = workloadName;
    doc["sweepWallSeconds"] = results.sweepWallSeconds;

    const auto addPoint = [&doc](unsigned n, const char* tech, unsigned inflight,
                                 const DsePoint& p, const char* memPath = "direct") {
        exp::Json entry = exp::Json::object();
        entry["accelerators"] = n;
        entry["memTech"] = tech;
        entry["memPath"] = memPath;
        entry["maxInflight"] = inflight;
        entry["runtimeTicks"] = p.runtime;
        exp::Json perAccel = exp::Json::array();
        for (const Tick t : p.perAcceleratorTicks) perAccel.push(t);
        entry["perAcceleratorTicks"] = std::move(perAccel);
        entry["wallSeconds"] = p.wallSeconds;
        entry["normalizedPerf"] = p.normalized;
        entry["checksumOk"] = p.ok;
        if (!p.error.empty()) entry["error"] = p.error;
        if (!p.memLatency.empty()) {
            exp::Json lat = exp::Json::object();
            for (const auto& [suffix, s] : p.memLatency) {
                if (s.count == 0) continue;  // A master that saw no traffic.
                exp::Json one = exp::Json::object();
                one["count"] = s.count;
                one["minTicks"] = s.minTicks;
                one["meanTicks"] = s.meanTicks;
                one["maxTicks"] = s.maxTicks;
                one["p50Ticks"] = s.p50Ticks;
                one["p99Ticks"] = s.p99Ticks;
                lat[suffix] = std::move(one);
            }
            entry["memLatency"] = std::move(lat);
            entry["memLatencyP50"] = p.memLatencyP50;
            entry["memLatencyP99"] = p.memLatencyP99;
        }
        if (p.profile != nullptr) {
            exp::Json buckets = exp::Json::object();
            for (const auto& b : p.profile->buckets()) {
                exp::Json one = exp::Json::object();
                one["seconds"] = b.seconds;
                one["fraction"] = b.fraction;
                buckets[b.name] = std::move(one);
            }
            entry["profileBuckets"] = std::move(buckets);
        }
        if (p.dmaDescriptors > 0) {
            entry["spmReadHits"] = p.spmReadHits;
            entry["spmReadMisses"] = p.spmReadMisses;
            entry["spmMshrJoins"] = p.spmMshrJoins;
            entry["dmaDescriptors"] = p.dmaDescriptors;
            entry["dmaLatencyP50"] = p.dmaLatencyP50;
            entry["dmaLatencyP99"] = p.dmaLatencyP99;
            entry["dmaLatencyMax"] = p.dmaLatencyMax;
        }
        if (!p.stageBlame.empty()) {
            exp::Json blame = exp::Json::object();
            for (const auto& [stage, ticks] : p.stageBlame) blame[stage] = ticks;
            entry["stageBlame"] = std::move(blame);
        }
        doc["points"].push(std::move(entry));
    };
    for (const auto& [n, series] : results.ideal) {
        for (const auto& [inflight, point] : series) {
            addPoint(n, "ideal", inflight, point);
        }
    }
    for (const auto& [n, techs] : results.panels) {
        for (const auto& [tech, series] : techs) {
            for (const auto& [inflight, point] : series) {
                addPoint(n, memTechName(tech), inflight, point);
            }
        }
    }
    for (const auto& [n, techs] : results.dmaSpmPanels) {
        for (const auto& [tech, series] : techs) {
            for (const auto& [inflight, point] : series) {
                addPoint(n, memTechName(tech), inflight, point, "dmaSpm");
            }
        }
    }

    const std::string path = exp::writeBenchJson(filename, doc);
    if (!path.empty()) {
        std::printf("# wrote %s (%zu points, jobs=%u, sweep %.1fs)\n", path.c_str(),
                    doc["points"].size(), results.jobs, results.sweepWallSeconds);
    }
}

/// Accelerator counts: {1,2,4} like the paper; trimmed in quick CI runs.
inline std::vector<unsigned> accelSweep() { return {1u, 2u, 4u}; }

}  // namespace g5r::bench
