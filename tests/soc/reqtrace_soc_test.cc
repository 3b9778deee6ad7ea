// Request tracing over the full SoC: sidecar content for real DSE runs,
// byte-identity across runner job counts and across idle-tick gating, the
// .g5rec identity contract with tracing enabled, the always-on in-memory
// stage blame, and the metrics-timeline channels for the DMA latency
// histogram and SPM counters.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "exp/runner.hh"
#include "obs/diff.hh"
#include "obs/metrics.hh"
#include "obs/reqtrace.hh"
#include "soc/experiments.hh"

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
    cfg.workloadName = "reqtrace";
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

TEST(ReqTraceSoc, DmaSpmSidecarCarriesTheCausalTree) {
    auto cfg = baseConfig(MemPath::kDmaSpm, 16);
    cfg.obs.reqtraceEnabled = true;
    cfg.obs.reqtracePath = ::testing::TempDir() + "/soc_tree.reqtrace.jsonl";
    const auto result = experiments::runNvdlaDse(cfg);
    ASSERT_TRUE(result.completed && result.checksumsOk);
    EXPECT_EQ(result.reqtracePath, cfg.obs.reqtracePath);

    const obs::ReqTraceFile file = obs::readReqTrace(cfg.obs.reqtracePath);
    ASSERT_FALSE(file.records.empty());
    EXPECT_EQ(file.declaredRequests, file.records.size());

    // One nvdlaJob root; prefetch and drain descriptors parent under it.
    std::size_t jobs = 0, prefetches = 0, drains = 0;
    ReqId jobId = 0;
    for (const auto& rec : file.records) {
        if (rec.kind == "nvdlaJob") {
            ++jobs;
            jobId = rec.id;
            EXPECT_EQ(rec.parent, 0u);
            EXPECT_TRUE(rec.ended);
        }
    }
    ASSERT_EQ(jobs, 1u);
    for (const auto& rec : file.records) {
        if (rec.kind == "dmaPrefetch") {
            ++prefetches;
            EXPECT_EQ(rec.parent, jobId);
        } else if (rec.kind == "dmaDrain") {
            ++drains;
            EXPECT_EQ(rec.parent, jobId);
        }
    }
    EXPECT_GT(prefetches, 0u);
    EXPECT_EQ(drains, 1u);

    // The whole tree attributes cleanly and covers real simulated time.
    const obs::BlameSummary blame = obs::computeBlame(file.records);
    ASSERT_EQ(blame.roots.size(), 1u);
    Tick sum = blame.unattributed;
    for (const Tick t : blame.stageTicks) sum += t;
    EXPECT_EQ(sum, blame.totalTicks);
    EXPECT_GT(blame.totalTicks, 0u);
    EXPECT_GT(blame.stageTicks[static_cast<std::size_t>(ReqStage::kDmaStage)], 0u);
    EXPECT_GT(blame.stageTicks[static_cast<std::size_t>(ReqStage::kDrain)], 0u);
    EXPECT_GT(blame.stageTicks[static_cast<std::size_t>(ReqStage::kRtlCompute)], 0u);
    std::remove(cfg.obs.reqtracePath.c_str());
}

TEST(ReqTraceSoc, StageBlameAlwaysPopulatedInMemory) {
    // No observability requested at all: the DSE harness still computes
    // stage blame via the in-memory reqtrace (and leaves no sidecar).
    const auto result = experiments::runNvdlaDse(baseConfig(MemPath::kDirect, 8));
    ASSERT_TRUE(result.completed && result.checksumsOk);
    EXPECT_TRUE(result.reqtracePath.empty());
    ASSERT_FALSE(result.stageBlame.empty());
    EXPECT_EQ(result.stageBlame.back().first, "unattributed");
    double total = 0;
    for (const auto& [stage, ticks] : result.stageBlame) total += ticks;
    EXPECT_GT(total, 0.0);
}

TEST(ReqTraceSoc, SidecarByteIdenticalAcrossRunnerJobs) {
    // Same task labels both times, so the sidecar headers match; only the
    // output paths differ. Canonical sorting must erase any worker-thread
    // callback-order effects.
    const auto makeTasks = [](const std::string& tag) {
        std::vector<exp::Task<std::string>> tasks;
        for (int t = 0; t < 3; ++t) {
            const std::string path = ::testing::TempDir() + "/rt_" + tag + "_" +
                                     std::to_string(t) + ".reqtrace.jsonl";
            tasks.push_back(exp::Task<std::string>{
                "reqtrace/t" + std::to_string(t), [t, path] {
                    auto cfg = baseConfig(t % 2 == 0 ? MemPath::kDmaSpm
                                                     : MemPath::kDirect,
                                          8u + 8u * static_cast<unsigned>(t));
                    cfg.obs.reqtraceEnabled = true;
                    cfg.obs.reqtracePath = path;
                    const auto r = experiments::runNvdlaDse(cfg);
                    EXPECT_TRUE(r.completed && r.checksumsOk);
                    return path;
                }});
        }
        return tasks;
    };

    const auto serial = exp::runTasks(makeTasks("j1"), 1);
    const auto parallel = exp::runTasks(makeTasks("j4"), 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t t = 0; t < serial.size(); ++t) {
        SCOPED_TRACE("task " + std::to_string(t));
        ASSERT_TRUE(serial[t].ok);
        ASSERT_TRUE(parallel[t].ok);
        const std::string bytesS = slurp(serial[t].value);
        ASSERT_FALSE(bytesS.empty());
        EXPECT_EQ(bytesS, slurp(parallel[t].value));
        std::remove(serial[t].value.c_str());
        std::remove(parallel[t].value.c_str());
    }
}

TEST(ReqTraceSoc, GatedAndUngatedSidecarsAreByteIdentical) {
    // Quiescence gating changes host-side dispatch, never simulated-time
    // packet behavior — and every reqtrace span is derived from simulated
    // ticks, so the sidecars must match to the byte.
    auto gated = baseConfig(MemPath::kDmaSpm, 16);
    auto ungated = gated;
    gated.gateIdleTicks = true;
    ungated.gateIdleTicks = false;
    gated.obs.reqtraceEnabled = ungated.obs.reqtraceEnabled = true;
    gated.obs.reqtracePath = ::testing::TempDir() + "/rt_gated.reqtrace.jsonl";
    ungated.obs.reqtracePath = ::testing::TempDir() + "/rt_ungated.reqtrace.jsonl";

    const auto g = experiments::runNvdlaDse(gated);
    const auto u = experiments::runNvdlaDse(ungated);
    ASSERT_TRUE(g.completed && g.checksumsOk);
    ASSERT_TRUE(u.completed && u.checksumsOk);
    const std::string bytesG = slurp(gated.obs.reqtracePath);
    ASSERT_FALSE(bytesG.empty());
    EXPECT_EQ(bytesG, slurp(ungated.obs.reqtracePath));
    std::remove(gated.obs.reqtracePath.c_str());
    std::remove(ungated.obs.reqtracePath.c_str());
}

TEST(ReqTraceSoc, RecordingsUnchangedByTracing) {
    // Request IDs ride on packets but are deliberately excluded from the
    // flight recorder's digests, and ID allocation happens whether or not
    // tracing listens — so turning the tracer on cannot move a single byte
    // of the .g5rec.
    auto off = baseConfig(MemPath::kDmaSpm, 16);
    auto on = off;
    off.obs.recordEnabled = on.obs.recordEnabled = true;
    off.obs.recordPath = ::testing::TempDir() + "/rt_rec_off.g5rec";
    on.obs.recordPath = ::testing::TempDir() + "/rt_rec_on.g5rec";
    on.obs.reqtraceEnabled = true;
    on.obs.reqtracePath = ::testing::TempDir() + "/rt_rec_on.reqtrace.jsonl";

    const auto a = experiments::runNvdlaDse(off);
    const auto b = experiments::runNvdlaDse(on);
    ASSERT_TRUE(a.completed && a.checksumsOk);
    ASSERT_TRUE(b.completed && b.checksumsOk);
    EXPECT_EQ(a.runtimeTicks, b.runtimeTicks);
    const std::string bytesOff = slurp(off.obs.recordPath);
    ASSERT_FALSE(bytesOff.empty());
    if (bytesOff != slurp(on.obs.recordPath)) {
        const obs::DivergenceReport rep =
            obs::diffRecordingFiles(off.obs.recordPath, on.obs.recordPath);
        ADD_FAILURE() << "tracing changed the flight recording:\n"
                      << obs::formatDivergenceReport(rep, off.obs.recordPath,
                                                     on.obs.recordPath);
    }
    std::remove(off.obs.recordPath.c_str());
    std::remove(on.obs.recordPath.c_str());
    std::remove(on.obs.reqtracePath.c_str());
}

TEST(ReqTraceSoc, MetricsTimelineCarriesDmaAndSpmChannels) {
    // PR 9's DMA latency histogram and SPM counters must surface in the
    // metrics timeline (and therefore in `g5r stats`) without bespoke wiring.
    auto cfg = baseConfig(MemPath::kDmaSpm, 16);
    cfg.obs.metricsEnabled = true;
    cfg.obs.metricsPath = ::testing::TempDir() + "/rt_dma.metrics.jsonl";
    const auto result = experiments::runNvdlaDse(cfg);
    ASSERT_TRUE(result.completed && result.checksumsOk);

    const obs::MetricsTimeline tl = obs::readMetricsTimeline(cfg.obs.metricsPath);
    EXPECT_GT(tl.finalValue("system.nvdla0.dma.descriptorLatency.count"), 0.0);
    EXPECT_GT(tl.finalValue("system.nvdla0.dma.descriptorLatency.p50"), 0.0);
    EXPECT_GT(tl.finalValue("system.nvdla0.dma.descriptorLatency.p99"), 0.0);
    EXPECT_GT(tl.finalValue("system.nvdla0.spm.readHits"), 0.0);
    EXPECT_GE(tl.finalValue("system.nvdla0.spm.mshrJoins"), 0.0);

    // And the harvested DseRunResult fields agree with the histogram.
    EXPECT_GT(result.dmaLatencyP50, 0.0);
    EXPECT_GE(result.dmaLatencyP99, result.dmaLatencyP50);
    EXPECT_GE(result.dmaLatencyMax, result.dmaLatencyP99);
    std::remove(cfg.obs.metricsPath.c_str());
}

}  // namespace
}  // namespace g5r
