// Compiled netlist backend vs the interpreter — the speedup that justifies
// the `g5r netlistc` toolflow. For each bitonic size N the same per-tick
// workload (all inputs re-randomized every evaluation, deterministic per-n
// seed) runs through the dirty-bit interpreter and the netlistc-compiled
// shared library (dlopen'd raw-kernel face, i.e. the exact artifact the
// simulator loads); equal output checksums across the two lanes gate the
// timing claims. Results serialize to
// BENCH_netlist_compile.json (schema 1): per (n, mode) wallSeconds and
// nsPerEval, plus per-n speedupVsDirty.
//
// Single-process, single-thread by design: the per-eval numbers feed the
// EXPERIMENTS.md speedup table, so no parallel runner here.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exp/bench_report.hh"
#include "rtl/codegen/kernel_loader.hh"
#include "rtl/netlist.hh"
#include "sim/rng.hh"
#include "soc/model_loader.hh"

using namespace g5r;

namespace {

bool g_allOk = true;

void check(bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) g_allOk = false;
}

struct LaneResult {
    double wallSeconds = 0;
    std::uint64_t checksum = 0;
};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    return h;
}

// Each lane re-randomizes every input before every evaluation (same Rng
// stream per n, so all lanes see identical stimuli — worst case for the
// dirty-bit evaluator's activity tracking, and the case the speedup claim is
// about), but only the eval() call itself is timed: input delivery and
// output readback go through different interfaces per lane (string-keyed vs
// indexed) and would otherwise pollute the per-tick evaluator comparison.
// The clock-read overhead per iteration is identical across lanes.

/// Interpreter lane.
LaneResult runInterpreted(unsigned n, unsigned iters) {
    rtl::Netlist nl{rtl::bitonicSorterNetlist(n)};
    std::vector<std::string> ins, outs;
    for (unsigned i = 0; i < n; ++i) {
        ins.push_back("in" + std::to_string(i));
        outs.push_back("out" + std::to_string(i));
    }
    Rng rng{0xBE7C4ull + n};
    LaneResult r;
    std::chrono::steady_clock::duration evalTime{};
    for (unsigned it = 0; it < iters; ++it) {
        for (unsigned i = 0; i < n; ++i) nl.setInput(ins[i], rng.next());
        const auto start = std::chrono::steady_clock::now();
        nl.eval();
        evalTime += std::chrono::steady_clock::now() - start;
        for (unsigned i = 0; i < n; ++i) r.checksum = mix(r.checksum, nl.output(outs[i]));
    }
    r.wallSeconds = std::chrono::duration<double>(evalTime).count();
    return r;
}

/// Compiled lane: the prebuilt lib<name>_cN.so from the model directory.
LaneResult runCompiled(rtl::codegen::CompiledKernel& kern, unsigned n,
                       unsigned iters) {
    Rng rng{0xBE7C4ull + n};  // Same stream as the interpreter lane.
    LaneResult r;
    std::chrono::steady_clock::duration evalTime{};
    for (unsigned it = 0; it < iters; ++it) {
        for (unsigned i = 0; i < n; ++i) kern.setInput(i, rng.next());
        const auto start = std::chrono::steady_clock::now();
        kern.eval();
        evalTime += std::chrono::steady_clock::now() - start;
        for (unsigned i = 0; i < n; ++i) r.checksum = mix(r.checksum, kern.output(i));
    }
    r.wallSeconds = std::chrono::duration<double>(evalTime).count();
    return r;
}

}  // namespace

int main() {
    const bool full = std::getenv("GEM5RTL_FULL") != nullptr;
    const unsigned iters = full ? 200'000 : 20'000;
    const std::vector<unsigned> sizes{8, 16, 32, 64};

    exp::Json doc = exp::benchDocument("netlist_compile", 1);
    doc["iters"] = iters;
    doc["points"] = exp::Json::array();

    std::printf("# bitonic eval: dirty-bit vs compiled, %u evals/lane\n", iters);
    std::printf("# %4s %14s %14s %10s\n", "n", "dirty ns/eval", "compiled ns/eval",
                "speedup");

    const auto sweepStart = std::chrono::steady_clock::now();
    double speedupAt64 = 0;
    for (const unsigned n : sizes) {
        const std::string soPath = compiledNetlistModelPath("bitonic", n);
        std::string error;
        auto kern = rtl::codegen::CompiledKernel::load(soPath, &error);
        if (kern == nullptr) {
            check(false, soPath + ": " + error);
            continue;
        }

        // Best of three repetitions per lane: the per-eval floor is the
        // robust statistic on a shared host (checksums must agree across
        // reps, so every rep still does all the work).
        const auto best = [](LaneResult a, const LaneResult& b) {
            if (b.checksum == a.checksum && b.wallSeconds < a.wallSeconds) {
                a.wallSeconds = b.wallSeconds;
            }
            return a;
        };
        LaneResult dirty = runInterpreted(n, iters);
        LaneResult comp = runCompiled(*kern, n, iters);
        for (int rep = 1; rep < 3; ++rep) {
            dirty = best(dirty, runInterpreted(n, iters));
            comp = best(comp, runCompiled(*kern, n, iters));
        }

        check(dirty.checksum == comp.checksum,
              "n=" + std::to_string(n) + ": compiled checksum == dirty-bit");

        const double perEval = 1e9 / iters;
        const double speedup =
            comp.wallSeconds > 0 ? dirty.wallSeconds / comp.wallSeconds : 0;
        if (n == 64) speedupAt64 = speedup;
        std::printf("  %4u %14.1f %14.1f %9.1fx\n", n, dirty.wallSeconds * perEval,
                    comp.wallSeconds * perEval, speedup);

        const struct {
            const char* mode;
            const LaneResult* r;
        } lanes[] = {{"dirty", &dirty}, {"compiled", &comp}};
        for (const auto& lane : lanes) {
            exp::Json entry = exp::Json::object();
            entry["n"] = n;
            entry["mode"] = lane.mode;
            entry["iters"] = iters;
            entry["wallSeconds"] = lane.r->wallSeconds;
            entry["nsPerEval"] = lane.r->wallSeconds * perEval;
            entry["speedupVsDirty"] =
                lane.r->wallSeconds > 0 ? dirty.wallSeconds / lane.r->wallSeconds
                                        : 0.0;
            char hex[32];
            std::snprintf(hex, sizeof hex, "%016llx",
                          static_cast<unsigned long long>(lane.r->checksum));
            entry["checksum"] = hex;
            doc["points"].push(std::move(entry));
        }
    }
    doc["sweepWallSeconds"] =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - sweepStart)
            .count();

    // The acceptance point for the compiled backend: an order of magnitude
    // over the dirty-bit interpreter on the biggest network.
    check(speedupAt64 >= 10.0,
          "compiled eval is >= 10x dirty-bit at n=64 (got " +
              std::to_string(speedupAt64) + "x)");

    const std::string path = exp::writeBenchJson("BENCH_netlist_compile.json", doc);
    if (!path.empty()) {
        std::printf("# wrote %s (%zu points)\n", path.c_str(),
                    doc["points"].size());
    }
    return g_allOk ? 0 : 1;
}
