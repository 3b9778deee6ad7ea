// Ablation: the RTLObject clock-ratio parameter ("a parameter can be used
// to change the frequency with respect to the core"). The same NVDLA
// workload runs with the accelerator clocked at 0.5, 1 (Table 1) and 2 GHz
// inside the 2 GHz SoC: simulated runtime scales with the accelerator clock
// until memory becomes the bottleneck, and host simulation cost scales with
// the number of RTL ticks evaluated.
#include <chrono>
#include <cstdio>

#include "exp/runner.hh"
#include "soc/experiments.hh"
#include "soc/model_loader.hh"
#include "soc/nvdla_host.hh"
#include "soc/soc.hh"

using namespace g5r;

namespace {

struct Result {
    Tick runtime = 0;
    double ticks = 0;    ///< RTL ticks evaluated.
    double wall = 0;     ///< Host seconds.
    bool ok = false;
};

Result run(Tick rtlPeriod, MemTech tech) {
    const auto start = std::chrono::steady_clock::now();

    Simulation sim;
    SocConfig socCfg = table1Config(tech);
    socCfg.numCores = 0;
    Soc soc{sim, socCfg};

    const auto trace = models::sharedConvTrace(
        "ratio", models::googlenetConv2Shape(), models::NvdlaPlacement{}, 0xC10C);
    RtlObjectParams rp;
    rp.clockPeriod = rtlPeriod;
    rp.maxInflight = 128;
    RtlObject& rtl = soc.attachRtlModel("nvdla0", loadRtlModel("nvdla"), rp,
                                        Soc::MemPorts::kMainMemory, false);

    NvdlaHost::Params hp;
    hp.csbBase = soc.deviceBaseOf(0);
    NvdlaHost host{sim, "system.host0", hp, trace};
    host.port().bind(soc.addHostPort("host0"));
    host.setDoneCallback([&] { sim.exitSimLoop("done"); });

    sim.run(2'000'000'000'000ULL);

    Result r;
    r.runtime = host.finishTick();
    r.ticks = rtl.statsGroup().find("ticks")->value();
    r.ok = host.finished() && host.checksumOk();
    r.wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                 .count();
    return r;
}

}  // namespace

int main(int argc, char** argv) {
    const unsigned jobs = exp::parseJobsFlag(argc, argv);
    std::printf("# Ablation: RTL clock ratio (GoogleNet conv2, one NVDLA, HBM)\n");
    std::printf("%-12s %14s %14s %12s\n", "rtl clock", "runtime (us)", "rtl ticks",
                "host (s)");

    const struct {
        const char* name;
        Tick period;
    } clocks[] = {
        {"0.5 GHz", periodFromMHz(500)},
        {"1 GHz", periodFromGHz(1)},
        {"2 GHz", periodFromGHz(2)},
    };

    std::vector<exp::Task<Result>> tasks;
    for (int i = 0; i < 3; ++i) {
        tasks.push_back(exp::Task<Result>{
            std::string{"clockratio/"} + clocks[i].name,
            [period = clocks[i].period] { return run(period, MemTech::kHbm); }});
    }
    const auto outcomes = exp::runTasks(std::move(tasks), jobs);

    Result results[3];
    for (int i = 0; i < 3; ++i) {
        if (!outcomes[i].ok) {
            std::printf("WARN: %s failed: %s\n", outcomes[i].label.c_str(),
                        outcomes[i].error.c_str());
        }
        results[i] = outcomes[i].value;
        std::printf("%-12s %14.2f %14.0f %12.3f\n", clocks[i].name,
                    ticksToMs(results[i].runtime) * 1000.0, results[i].ticks,
                    results[i].wall);
    }

    int failures = 0;
    auto check = [&](bool ok, const char* what) {
        std::printf("[%s] %s\n", ok ? "PASS" : "WARN", what);
        if (!ok) ++failures;
    };
    check(results[0].ok && results[1].ok && results[2].ok,
          "all clock ratios verify the datapath checksum");
    check(results[0].runtime > results[1].runtime &&
              results[1].runtime > results[2].runtime,
          "a faster accelerator clock shortens the (compute-bound) run");
    // Halving the clock roughly halves compute throughput on this
    // compute-bound workload.
    const double slowdown = static_cast<double>(results[0].runtime) /
                            static_cast<double>(results[1].runtime);
    check(slowdown > 1.6 && slowdown < 2.4, "runtime scales ~2x from 1 GHz to 0.5 GHz");
    return failures == 0 ? 0 : 2;
}
