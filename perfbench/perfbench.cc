// Host-time benchmark over the paper's own experiment harness.
//
//   g5r-perfbench <workload> <seed> <seconds> <trace>
//
// A job runs every point of one workload through experiments::runNvdlaDse or
// experiments::runPmuSortExperiment, the calls the bench/ binaries make, and
// checks each result. Jobs repeat until <seconds> of host time have passed;
// each prints one JSON object on stdout with every point's host time, and
// run.py (next to this file) turns them into the final result line.
//
// Before each job a set-up pass calls the harness on the same points with a
// zero-tick budget: it builds the SoC, models, drivers and inputs, starts
// them up, and returns before anything is simulated. Its time is the job's
// set-up cost.
//
// The harness draws its tensor data and sort arrays from fixed seeds, so the
// run seed picks the order the points run in. Every job of a run simulates
// the same points, and each must reproduce the first job's simulated results
// exactly.
//
// With <trace> = 1 the jobs rotate over three observer settings: "profiled"
// adds the HostProfiler to the harness defaults (per-SimObject host time,
// folded into the layers below), "reqtrace" keeps an in-memory request trace,
// "bare" turns every observer off. Comparing their job times prices each
// observer.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "models/nvdla/standalone.hh"
#include "models/nvdla/trace.hh"
#include "obs/profiler.hh"
#include "sim/rng.hh"
#include "soc/experiments.hh"
#include "soc/model_loader.hh"

using namespace g5r;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

enum class Variant { kPlain, kProfiled, kReqtrace, kBare };

const char* variantName(Variant v) {
    switch (v) {
    case Variant::kPlain: return "plain";
    case Variant::kProfiled: return "profiled";
    case Variant::kReqtrace: return "reqtrace";
    case Variant::kBare: return "bare";
    }
    return "?";
}

// Observers for a variant. kPlain and kProfiled keep the harness defaults:
// the DSE harness always keeps an in-memory request trace for stage blame,
// the PMU harness keeps none. kBare switches that trace off through the
// environment overlay, the one switch the DSE harness honours.
obs::ObsOptions observersFor(Variant v) {
    obs::ObsOptions o;
    if (v == Variant::kReqtrace) {
        o.reqtraceEnabled = true;
        // "-" keeps the trace in memory. Built from a char: GCC 12
        // misreports -Wrestrict when the literal is assigned.
        o.reqtracePath = std::string(1, '-');
    }
    if (v == Variant::kProfiled) {
        o.profileEnabled = true;
        o.profileStride = 4;
    }
    return o;
}

// Simulator layers, in report order. Host time nobody's handler claimed is
// the event loop's own (queue maintenance and dispatch).
constexpr const char* kLayers[] = {"event_loop", "xbar", "dram", "dma_spm",
                                   "rtl",        "cpu",  "cache", "driver"};
constexpr std::size_t kNumLayers = std::size(kLayers);

// Layer of a SimObject, from the names Soc and the harness give them. Order
// matters: "system.nvdla0.spmbus" is a crossbar, not the RTL model, and
// "system.pmu_observer" is driver software, not the PMU.
std::size_t layerOf(std::string_view name) {
    const auto has = [name](std::string_view term) {
        return name.find(term) != std::string_view::npos;
    };
    if (has("bus") || has("noc")) return 1;
    if (has(".dma") || has(".spm")) return 3;
    if (has(".l1i") || has(".l1d") || has(".l2") || has("llc")) return 6;
    if (has("system.mem")) return 2;
    if (has("cpu")) return 5;
    if (has("host") || has("prefetch") || has("observer")) return 7;
    if (has("nvdla") || has("pmu")) return 4;
    return 0;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    return h;
}

std::uint64_t bitsOf(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

// What one point reports back.
struct Outcome {
    bool ok = false;
    std::uint64_t digest = 0;  ///< Simulated outcome; must repeat exactly.
    /// Values that other points of the job must match: (group, value).
    std::vector<std::pair<std::string, std::uint64_t>> invariants;
    std::shared_ptr<const obs::ProfileReport> profile;
    bool traced = false;     ///< A request trace gave stage blame.
    bool simulated = true;   ///< false: the bare model, no simulator.
};

// One point of a workload. setupOnly = run it with a zero-tick budget.
using Point = std::function<Outcome(const obs::ObsOptions&, bool setupOnly)>;

// ------------------------------------------------------------- NVDLA (DSE) --

Point dsePoint(experiments::DseRunConfig cfg, std::string gatingGroup = {}) {
    return [cfg, gatingGroup](const obs::ObsOptions& o, bool setupOnly) {
        experiments::DseRunConfig c = cfg;
        c.obs = o;
        if (setupOnly) c.maxTicks = 0;
        const experiments::DseRunResult r = experiments::runNvdlaDse(c);
        Outcome out;
        out.profile = r.profile;
        out.ok = r.completed && r.checksumsOk && r.runtimeTicks > 0 &&
                 r.perAcceleratorTicks.size() == c.numAccelerators;
        out.traced = !r.stageBlame.empty();
        if (out.traced) {
            // Stage blame splits every accelerator's job window, from time 0
            // to its finish line, with nothing left over.
            double windows = 0;
            for (const Tick t : r.perAcceleratorTicks) windows += static_cast<double>(t);
            double blamed = 0;
            for (const auto& [stage, ticks] : r.stageBlame) blamed += ticks;
            out.ok = out.ok && blamed == windows;
        }
        std::uint64_t h = mix(0, r.runtimeTicks);
        for (const Tick t : r.perAcceleratorTicks) h = mix(h, t);
        h = mix(mix(h, bitsOf(r.spmReadHits)), bitsOf(r.spmReadMisses));
        h = mix(mix(h, r.dmaDescriptors), bitsOf(r.memLatencyP99));
        out.digest = h;
        // Idle-tick gating may never move simulated time.
        if (!gatingGroup.empty()) out.invariants.emplace_back(gatingGroup, r.runtimeTicks);
        return out;
    };
}

// The Fig. 7 bench's sweep (Sanity3, idle cores left out) at four of its
// (accelerators, in-flight) columns: one instance starved (q=1) and at the
// full window, two at a mid window, four at the full window. Each column is
// the ideal-memory baseline plus every DRAM technology over both memory
// paths, as bench::runDseColumn runs it. Multi-instance columns dominate the
// full sweep's host time (four instances alone take about three fifths), so
// they take about three quarters of this job.
std::vector<Point> fig7Points() {
    std::vector<Point> out;
    const std::pair<unsigned, unsigned> columns[] = {{1, 1}, {1, 240}, {2, 16}, {4, 240}};
    for (const auto& [accels, inflight] : columns) {
        experiments::DseRunConfig cfg;
        cfg.shape = models::sanity3Shape(1);
        cfg.workloadName = "sanity3";
        cfg.numAccelerators = accels;
        cfg.maxInflight = inflight;
        cfg.numCores = 0;
        cfg.memTech = MemTech::kIdeal;
        out.push_back(dsePoint(cfg));
        for (const MemPath path : {MemPath::kDirect, MemPath::kDmaSpm}) {
            cfg.memPath = path;
            for (const MemTech tech : experiments::memTechSeries()) {
                cfg.memTech = tech;
                out.push_back(dsePoint(cfg));
            }
        }
    }
    return out;
}

// Table 3's SoC rows: both workloads at the bench's scales on one accelerator
// beside a host core, over perfect memory and DDR4-4ch, gated and ungated;
// plus its baseline, each trace on the bare model with no simulator around
// it.
std::vector<Point> table3Points() {
    std::vector<Point> out;
    const std::pair<const char*, models::NvdlaShape> shapes[] = {
        {"Sanity3", models::sanity3Shape(2)}, {"GoogleNet", models::googlenetConv2Shape(6)}};
    for (const auto& [name, shape] : shapes) {
        for (const MemTech tech : {MemTech::kIdeal, MemTech::kDdr4_4ch}) {
            for (const bool gate : {true, false}) {
                experiments::DseRunConfig cfg;
                cfg.shape = shape;
                cfg.memTech = tech;
                cfg.numCores = 1;
                cfg.maxInflight = 240;
                cfg.gateIdleTicks = gate;
                out.push_back(dsePoint(cfg, std::string{name} + "/" + memTechName(tech)));
            }
        }
        out.push_back([shape = shape](const obs::ObsOptions&, bool setupOnly) {
            Outcome o;
            o.simulated = false;
            const auto model = loadRtlModel("nvdla");
            const models::NvdlaTrace trace =
                models::makeConvTrace("t", shape, models::NvdlaPlacement{}, 0xACE);
            if (setupOnly) {
                o.ok = true;
                return o;
            }
            BackingStore mem;
            const models::StandaloneResult r = models::playTraceStandalone(*model, trace, mem);
            o.ok = r.completed && r.checksum == trace.expectedChecksum;
            o.digest = mix(0, r.checksum);
            return o;
        });
    }
    return out;
}

// ------------------------------------------------------------ PMU (Table 2) --

// Table 2's rows at its smallest size: the sort benchmark on one core
// without the PMU, with it (gated and ungated), and attached but never
// programmed.
std::vector<Point> table2Points() {
    struct Row {
        bool attach, gate, program;
    };
    std::vector<Point> points;
    for (const Row row : {Row{false, true, true}, Row{true, true, true},
                          Row{true, false, true}, Row{true, true, false}}) {
        experiments::PmuRunConfig cfg;
        cfg.layout.baseElems = 150;
        cfg.layout.sleepNs = 20'000;
        cfg.numCores = 1;
        cfg.attachPmu = row.attach;
        cfg.gateIdleTicks = row.gate;
        cfg.programPmu = row.program;
        points.push_back([cfg, row](const obs::ObsOptions& o, bool setupOnly) {
            experiments::PmuRunConfig c = cfg;
            c.obs = o;
            if (setupOnly) c.maxTicks = 0;
            const experiments::PmuRunResult r = experiments::runPmuSortExperiment(c);
            Outcome out;
            out.profile = r.profile;
            out.ok = r.completed && r.committedInsts > 0;
            if (row.attach && row.program) {
                // Fig. 5's claim: the PMU's IPC matches the simulator's.
                out.ok = out.ok && !r.intervals.empty() && r.maxAbsIpcError < 0.25;
            }
            std::uint64_t h = mix(mix(mix(0, r.finalTick), r.committedInsts), r.cycles);
            for (const PmuObserver::Sample& s : r.rawSamples) {
                h = mix(mix(h, s.irqTick), s.pmuCommits());
            }
            out.digest = h;
            // The PMU only watches: with or without it, programmed or not,
            // the core commits the same program.
            out.invariants.emplace_back("committedInsts", r.committedInsts);
            if (row.program && row.attach) out.invariants.emplace_back("gating", r.finalTick);
            return out;
        });
    }
    return points;
}

// ---------------------------------------------------------------- workloads --

struct Workload {
    const char* name;
    std::vector<Point> (*points)();
};

const Workload kWorkloads[] = {
    {"fig7_dse", fig7Points},
    {"table2_pmu", table2Points},
    {"table3_nvdla", table3Points},
};

struct JobResult {
    std::vector<double> seconds;   ///< Host time per point, in run order.
    double standaloneSeconds = 0;  ///< Points on the bare model.
    bool traced = false;
    std::vector<bool> ok;  ///< Per point, in run order.
    std::vector<std::uint64_t> digests;
    std::uint64_t events = 0;
    double runSeconds = 0;
    double layerSeconds[kNumLayers] = {};
    std::uint64_t layerEvents[kNumLayers] = {};
};

// Runs every point once, in order, under a variant's observers.
JobResult runJob(const std::vector<Point>& points, Variant variant, bool setupOnly) {
    // The DSE harness turns request tracing on unless this overlay speaks;
    // run.py starts this binary with no GEM5RTL_* variable set.
    if (variant == Variant::kBare) {
        setenv("GEM5RTL_REQTRACE", "0", 1);
    } else {
        unsetenv("GEM5RTL_REQTRACE");
    }
    const obs::ObsOptions observers = observersFor(variant);
    JobResult job;
    std::vector<Outcome> outcomes;
    for (const Point& p : points) {
        const auto start = Clock::now();
        outcomes.push_back(p(observers, setupOnly));
        const double seconds = secondsSince(start);
        job.seconds.push_back(seconds);
        if (!outcomes.back().simulated) job.standaloneSeconds += seconds;
    }

    std::map<std::string, std::uint64_t> invariants;
    for (const Outcome& o : outcomes) {
        bool ok = o.ok;
        for (const auto& [group, value] : o.invariants) {
            const auto [it, fresh] = invariants.emplace(group, value);
            ok = ok && (fresh || it->second == value);
        }
        job.ok.push_back(ok);
        job.traced = job.traced || o.traced;
        job.digests.push_back(o.digest);
        if (o.profile == nullptr) continue;
        double attributed = 0;
        for (const obs::ProfileEntry& e : o.profile->entries) {
            const std::size_t layer = layerOf(e.name);
            job.layerSeconds[layer] += e.estimatedSeconds;
            job.layerEvents[layer] += e.dispatches;
            attributed += e.estimatedSeconds;
        }
        job.layerSeconds[0] += std::max(0.0, o.profile->runSeconds - attributed);
        job.runSeconds += o.profile->runSeconds;
        job.events += o.profile->dispatches;
    }
    return job;
}

void printSeconds(const char* key, const std::vector<double>& seconds) {
    std::printf(",\"%s\":[", key);
    for (std::size_t i = 0; i < seconds.size(); ++i) {
        std::printf("%s%.9g", i ? "," : "", seconds[i]);
    }
    std::printf("]");
}

void printJob(unsigned index, Variant variant, const JobResult& setup, const JobResult& job) {
    const auto failed = std::count(job.ok.begin(), job.ok.end(), false);
    std::printf("{\"job\":%u,\"variant\":\"%s\",\"points\":%zu,\"failed\":%td,"
                "\"traced\":%s,\"standalone_s\":%.9g",
                index, variantName(variant), job.ok.size(), failed,
                job.traced ? "true" : "false", job.standaloneSeconds);
    printSeconds("setup_point_s", setup.seconds);
    printSeconds("point_s", job.seconds);
    if (variant == Variant::kProfiled) {
        std::printf(",\"run_s\":%.9g,\"events\":%llu,\"layer_s\":{", job.runSeconds,
                    static_cast<unsigned long long>(job.events));
        for (std::size_t l = 0; l < kNumLayers; ++l) {
            std::printf("%s\"%s\":%.9g", l ? "," : "", kLayers[l], job.layerSeconds[l]);
        }
        std::printf("},\"layer_events\":{");
        for (std::size_t l = 0; l < kNumLayers; ++l) {
            std::printf("%s\"%s\":%llu", l ? "," : "", kLayers[l],
                        static_cast<unsigned long long>(job.layerEvents[l]));
        }
        std::printf("}");
    }
    std::printf("}\n");
    std::fflush(stdout);
}

std::optional<std::uint64_t> parseUnsigned(const char* text) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-') return std::nullopt;
    return v;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc != 5) {
        std::fprintf(stderr, "usage: %s <workload> <seed> <seconds> <trace 0|1>\n", argv[0]);
        return 2;
    }
    const Workload* workload = nullptr;
    for (const Workload& w : kWorkloads) {
        if (std::string_view{w.name} == argv[1]) workload = &w;
    }
    const auto seed = parseUnsigned(argv[2]);
    const auto seconds = parseUnsigned(argv[3]);
    const auto trace = parseUnsigned(argv[4]);
    if (workload == nullptr || !seed || !seconds || !trace || *trace > 1) {
        std::fprintf(stderr, "bad arguments (workloads:");
        for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
        std::fprintf(stderr, ")\n");
        return 2;
    }

    // The seed shuffles the points (Fisher-Yates); every job runs them in
    // this order.
    std::vector<Point> points = workload->points();
    Rng rng{0x5EED0000ULL ^ *seed};
    for (std::size_t i = points.size(); i > 1; --i) std::swap(points[i - 1], points[rng.below(i)]);

    static constexpr Variant kTraceRotation[] = {Variant::kProfiled, Variant::kReqtrace,
                                                 Variant::kBare};
    std::optional<std::vector<std::uint64_t>> reference;
    const auto start = Clock::now();
    unsigned jobs = 0;
    // One unmeasured job first: it pages in the model libraries and warms
    // the allocator, which a long sweep pays once, not per point.
    runJob(points, Variant::kBare, /*setupOnly=*/true);
    runJob(points, Variant::kBare, /*setupOnly=*/false);
    do {
        const Variant variant = *trace ? kTraceRotation[jobs % 3] : Variant::kPlain;
        const JobResult setup = runJob(points, variant, /*setupOnly=*/true);
        JobResult job = runJob(points, variant, /*setupOnly=*/false);
        if (!reference) reference = job.digests;
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (job.digests[i] != (*reference)[i]) job.ok[i] = false;
        }
        printJob(jobs, variant, setup, job);
        ++jobs;
    } while (secondsSince(start) < static_cast<double>(*seconds) ||
             jobs < (*trace ? std::size(kTraceRotation) : 1));
    return 0;
}
