// The DMA + scratchpad memory path (SocConfig::memPath == kDmaSpm): the
// NVDLA working set is staged into an SPM by a DmaEngine, the accelerator
// runs against SRAM-latency memory, and the ofmap is drained back. These
// tests cover end-to-end correctness, the performance crossover against the
// direct DBBIF path at shallow queue depth, determinism (repeat runs and
// gated-vs-ungated on the packet lane), and survival under a flaky host
// port while the real DRAM back-pressures the DMA.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/flaky_forwarder.hh"
#include "obs/diff.hh"
#include "soc/experiments.hh"
#include "soc/model_loader.hh"
#include "soc/nvdla_host.hh"
#include "soc/soc.hh"
#include "soc/spm_prefetcher.hh"

namespace g5r {
namespace {

models::NvdlaShape tinyShape() {
    models::NvdlaShape shape;
    shape.width = shape.height = 8;
    shape.inChannels = 16;
    shape.outChannels = 16;
    shape.filterH = shape.filterW = 3;
    shape.refetch = 1;
    return shape;
}

experiments::DseRunConfig baseConfig(MemPath path, unsigned maxInflight) {
    experiments::DseRunConfig cfg;
    cfg.shape = tinyShape();
    cfg.workloadName = "dmaspm";
    cfg.memTech = MemTech::kDdr4_1ch;
    cfg.memPath = path;
    cfg.maxInflight = maxInflight;
    cfg.numAccelerators = 1;
    cfg.numCores = 0;
    return cfg;
}

std::string slurp(const std::string& path) {
    std::ifstream in{path};
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(DmaSpmPath, CompletesAndVerifies) {
    const auto result = experiments::runNvdlaDse(baseConfig(MemPath::kDmaSpm, 64));
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(result.checksumsOk);
    // Prefetch descriptors ran and the DLA's reads hit the staged lines.
    EXPECT_GT(result.dmaDescriptors, 0u);
    EXPECT_GT(result.spmReadHits, 0.0);
}

TEST(DmaSpmPath, BeatsDirectAtShallowQueueDepth) {
    // With one in-flight request the direct path serializes DRAM round
    // trips; the DMA+SPM path streams the working set in at the DMA's own
    // (deep) queue depth and serves the accelerator at SRAM latency, so it
    // wins even after paying for the prefetch and the ofmap drain.
    const auto direct = experiments::runNvdlaDse(baseConfig(MemPath::kDirect, 1));
    const auto staged = experiments::runNvdlaDse(baseConfig(MemPath::kDmaSpm, 1));
    ASSERT_TRUE(direct.completed && direct.checksumsOk);
    ASSERT_TRUE(staged.completed && staged.checksumsOk);
    EXPECT_LT(staged.runtimeTicks, direct.runtimeTicks);
}

TEST(DmaSpmPath, RepeatRunsAreByteIdentical) {
    auto cfgA = baseConfig(MemPath::kDmaSpm, 16);
    auto cfgB = cfgA;
    cfgA.obs.recordEnabled = cfgB.obs.recordEnabled = true;
    cfgA.obs.recordPath = ::testing::TempDir() + "/dmaspm_rep_a.g5rec";
    cfgB.obs.recordPath = ::testing::TempDir() + "/dmaspm_rep_b.g5rec";

    const auto a = experiments::runNvdlaDse(cfgA);
    const auto b = experiments::runNvdlaDse(cfgB);
    ASSERT_TRUE(a.completed && a.checksumsOk);
    ASSERT_TRUE(b.completed && b.checksumsOk);
    EXPECT_EQ(a.runtimeTicks, b.runtimeTicks);
    const std::string bytesA = slurp(a.recordPath);
    ASSERT_FALSE(bytesA.empty());
    if (bytesA != slurp(b.recordPath)) {
        const obs::DivergenceReport rep =
            obs::diffRecordingFiles(a.recordPath, b.recordPath);
        ADD_FAILURE() << "flight recordings differ:\n"
                      << obs::formatDivergenceReport(rep, a.recordPath, b.recordPath);
    }
}

TEST(DmaSpmPath, GatedAndUngatedAgreeOnPacketLane) {
    // Quiescence gating elides idle RTL dispatches but must never change
    // the memory traffic (DESIGN.md §8) — compare the packet lane only.
    auto gated = baseConfig(MemPath::kDmaSpm, 16);
    auto ungated = gated;
    gated.gateIdleTicks = true;
    ungated.gateIdleTicks = false;
    gated.obs.recordEnabled = ungated.obs.recordEnabled = true;
    gated.obs.recordPath = ::testing::TempDir() + "/dmaspm_gated.g5rec";
    ungated.obs.recordPath = ::testing::TempDir() + "/dmaspm_ungated.g5rec";

    const auto g = experiments::runNvdlaDse(gated);
    const auto u = experiments::runNvdlaDse(ungated);
    ASSERT_TRUE(g.completed && g.checksumsOk);
    ASSERT_TRUE(u.completed && u.checksumsOk);
    EXPECT_EQ(g.runtimeTicks, u.runtimeTicks);
    const obs::DivergenceReport rep = obs::diffRecordingFiles(
        g.recordPath, u.recordPath, obs::DiffLane::kPacketsOnly);
    ASSERT_TRUE(rep.comparable) << rep.error;
    EXPECT_FALSE(rep.diverged)
        << obs::formatDivergenceReport(rep, g.recordPath, u.recordPath);
}

/// Full SoC over the dmaSpm path with a FlakyForwarder spliced into the
/// host's port: CSB traffic sees random rejections while the single DDR4
/// channel genuinely back-pressures the DMA prefetch/drain underneath.
void runFlakyDmaSpmSoc(bool gateIdleTicks) {
    Simulation sim;
    SocConfig socCfg = table1Config(MemTech::kDdr4_1ch);
    socCfg.numCores = 0;
    socCfg.memPath = MemPath::kDmaSpm;
    Soc soc{sim, socCfg};

    models::NvdlaPlacement placement;
    placement.ifmapBase = 0x2000'0000ULL;
    placement.weightBase = placement.ifmapBase + 0x0100'0000ULL;
    placement.ofmapBase = placement.ifmapBase + 0x0200'0000ULL;
    const auto trace =
        models::sharedConvTrace("flaky-dmaspm", tinyShape(), placement, 0x5EED, false);

    RtlObjectParams rp;
    rp.clockPeriod = socCfg.rtlClock;
    rp.maxInflight = 16;
    rp.gateIdleTicks = gateIdleTicks;
    soc.attachRtlModel("nvdla0", loadRtlModel("nvdla"), rp, Soc::MemPorts::kMainMemory,
                       /*wireEventBus=*/false);

    NvdlaHost::Params hp;
    hp.csbBase = soc.deviceBaseOf(0);
    hp.clockPeriod = socCfg.coreClock;
    hp.waitForRelease = true;
    NvdlaHost host{sim, "system.host0", hp, trace};

    testing::FlakyForwarderParams fp;
    fp.rejectOneIn = 3;
    testing::FlakyForwarder flaky{sim, "system.flaky_host", fp};
    host.port().bind(flaky.cpuSidePort());
    flaky.memSidePort().bind(soc.addHostPort("host0"));

    SpmPrefetcher prefetcher{sim, "system.prefetch0", soc.dmaEngine(0), trace};
    prefetcher.setDoneCallback([&host] { host.release(); });
    host.setDoneCallback([&] {
        soc.dmaEngine(0).enqueue(DmaEngine::Descriptor{
            placement.ofmapBase, placement.ofmapBase, tinyShape().ofmapBytes(),
            DmaEngine::Direction::kSpmToMem,
            [&sim] { sim.exitSimLoop("drained"); }});
    });

    const RunResult run = sim.run(2'000'000'000'000ULL);
    EXPECT_EQ(run.cause, ExitCause::kSimExit);
    EXPECT_TRUE(host.finished());
    EXPECT_TRUE(host.checksumOk());
    EXPECT_GT(flaky.reqRejections(), 0);
}

TEST(DmaSpmPath, SurvivesFlakyHostPortGated) { runFlakyDmaSpmSoc(true); }

TEST(DmaSpmPath, SurvivesFlakyHostPortUngated) { runFlakyDmaSpmSoc(false); }

}  // namespace
}  // namespace g5r
