// Metrics timeline: JSONL round trip through readMetricsTimeline,
// delta/reset reconstruction, byte-identical output at any --jobs count,
// the zero-cost disabled path, and degradation on an unopenable path.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/record_harness.hh"
#include "exp/runner.hh"
#include "obs/metrics.hh"
#include "obs/options.hh"
#include "obs/session.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"

namespace g5r::obs {
namespace {

std::string slurp(const std::string& path) {
    std::ifstream in{path};
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

ObsOptions metricsOpts(const std::string& path, Tick intervalTicks = 2'000) {
    ObsOptions o;
    o.metricsEnabled = true;
    o.metricsPath = path;
    o.metricsIntervalTicks = intervalTicks;
    return o;
}

TEST(Metrics, TimelineRoundTripsThroughReader) {
    const std::string path = ::testing::TempDir() + "/metrics_roundtrip.jsonl";
    testing::RecordHarness h{metricsOpts(path), "metrics_roundtrip"};
    ASSERT_NE(h.session, nullptr);
    ASSERT_NE(h.session->metrics(), nullptr);
    ASSERT_TRUE(h.session->metrics()->ok());
    h.runReads(16);

    const MetricsTimeline tl = readMetricsTimeline(path);
    EXPECT_EQ(tl.schema, MetricsSession::kSchema);
    EXPECT_EQ(tl.run, "metrics_roundtrip");
    EXPECT_EQ(tl.intervalTicks, 2'000u);
    EXPECT_EQ(tl.endTick, h.sim.curTick());
    ASSERT_FALSE(tl.samples.empty());
    EXPECT_EQ(tl.declaredSamples, tl.samples.size());

    // Reconstructed final values equal the live stats at end of run: the
    // delta encoding loses nothing.
    const auto* numReads = h.sim.findStat("system.mem0.numReads");
    ASSERT_NE(numReads, nullptr);
    EXPECT_DOUBLE_EQ(tl.finalValue("system.mem0.numReads"), numReads->value());
    EXPECT_DOUBLE_EQ(tl.finalValue("system.mem0.numReads"), 16.0);
    EXPECT_DOUBLE_EQ(tl.finalValue("system.mem0.bytesRead"), 16.0 * 64.0);

    // The cumulative series is monotone for a counter and ends at the total.
    const auto series = tl.series("system.mem0.numReads");
    ASSERT_FALSE(series.empty());
    double prev = 0.0;
    for (const auto& [tick, value] : series) {
        EXPECT_GE(value, prev);
        prev = value;
    }
    EXPECT_DOUBLE_EQ(series.back().second, 16.0);
    std::remove(path.c_str());
}

TEST(Metrics, DeltasAndResetsReconstruct) {
    Simulation sim;
    SimObject obj{sim, "sys.dev"};
    auto& counter = obj.statsGroup().scalar("hits", "hit count");

    const std::string path = ::testing::TempDir() + "/metrics_deltas.jsonl";
    MetricsSession ms{sim, path, "deltas", 10};
    ASSERT_TRUE(ms.ok());

    counter += 5;
    ms.sampleAt(10);
    counter += 2.5;
    ms.sampleAt(20);
    ms.sampleAt(30);  // Nothing changed: the sample line has an empty delta map.
    obj.statsGroup().resetAll();
    ms.sampleAt(40);  // A reset round-trips as a negative delta.
    ms.finish(50);

    const MetricsTimeline tl = readMetricsTimeline(path);
    ASSERT_EQ(tl.samples.size(), 5u);  // 4 explicit + the tail sample.
    EXPECT_TRUE(tl.samples[2].deltas.empty());

    const auto series = tl.series("sys.dev.hits");
    ASSERT_EQ(series.size(), 5u);
    EXPECT_EQ(series[0], (std::pair<Tick, double>{10, 5.0}));
    EXPECT_EQ(series[1], (std::pair<Tick, double>{20, 7.5}));
    EXPECT_EQ(series[2], (std::pair<Tick, double>{30, 7.5}));
    EXPECT_EQ(series[3], (std::pair<Tick, double>{40, 0.0}));
    EXPECT_DOUBLE_EQ(tl.finalValue("sys.dev.hits"), 0.0);

    // Histograms expand to count and quantile channels.
    auto& hist = obj.statsGroup().histogram("latHist", "latency histogram");
    for (int i = 1; i <= 100; ++i) hist.sampleInt(static_cast<std::uint64_t>(i));
    MetricsSession ms2{sim, path, "deltas2", 10};
    ms2.finish(60);
    const MetricsTimeline tl2 = readMetricsTimeline(path);
    EXPECT_DOUBLE_EQ(tl2.finalValue("sys.dev.latHist.count"), 100.0);
    EXPECT_GE(tl2.finalValue("sys.dev.latHist.p50"), 50.0);
    EXPECT_LE(tl2.finalValue("sys.dev.latHist.p99"), 100.0);
    std::remove(path.c_str());
}

// The determinism contract the diff gate rests on: the same simulated run
// writes byte-identical timelines whether the sweep ran on one thread or
// four (no wall-clock, no host state — simulated ticks and stats only).
TEST(Metrics, TimelinesAreByteIdenticalAcrossRunnerJobs) {
    constexpr int kRuns = 4;
    const auto makeTasks = [](const std::string& tag) {
        std::vector<exp::Task<std::string>> tasks;
        for (int t = 0; t < kRuns; ++t) {
            const std::string path = ::testing::TempDir() + "/metrics_" + tag + "_" +
                                     std::to_string(t) + ".jsonl";
            tasks.push_back(exp::Task<std::string>{
                "metrics/" + tag + std::to_string(t), [t, path] {
                    testing::RecordHarness h{metricsOpts(path),
                                             "metrics_run" + std::to_string(t)};
                    h.runReads(8 + 2 * t);
                    return path;
                }});
        }
        return tasks;
    };

    const auto serial = exp::runTasks(makeTasks("j1"), 1);
    const auto parallel = exp::runTasks(makeTasks("j4"), 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (int t = 0; t < kRuns; ++t) {
        SCOPED_TRACE("run " + std::to_string(t));
        ASSERT_TRUE(serial[static_cast<std::size_t>(t)].ok);
        ASSERT_TRUE(parallel[static_cast<std::size_t>(t)].ok);
        const std::string bytesS = slurp(serial[static_cast<std::size_t>(t)].value);
        const std::string bytesP = slurp(parallel[static_cast<std::size_t>(t)].value);
        ASSERT_FALSE(bytesS.empty());
        EXPECT_EQ(bytesS, bytesP);
        std::remove(serial[static_cast<std::size_t>(t)].value.c_str());
        std::remove(parallel[static_cast<std::size_t>(t)].value.c_str());
    }
}

TEST(Metrics, DisabledPathCreatesNothing) {
    // All-default options: no session at all — the simulation runs with the
    // observer slot empty (the zero-cost contract).
    testing::RecordHarness off{ObsOptions{}, "metrics_off"};
    EXPECT_EQ(off.session, nullptr);
    off.runReads(4);
    EXPECT_EQ(off.req->numResponses(), 4u);

    // Recording on but metrics off: a session exists, without a metrics
    // sampler and without a timeline file.
    const std::string recPath = ::testing::TempDir() + "/metrics_off.g5rec";
    ObsOptions o;
    o.recordEnabled = true;
    o.recordPath = recPath;
    testing::RecordHarness h{o, "metrics_off2"};
    ASSERT_NE(h.session, nullptr);
    EXPECT_EQ(h.session->metrics(), nullptr);
    h.runReads(4);
    std::remove(recPath.c_str());
}

TEST(Metrics, UnopenablePathDegradesWithoutKillingTheRun) {
    const std::string path = "/nonexistent-g5r-dir/deep/metrics.jsonl";
    testing::RecordHarness h{metricsOpts(path), "metrics_bad_path"};
    ASSERT_NE(h.session, nullptr);
    ASSERT_NE(h.session->metrics(), nullptr);
    EXPECT_FALSE(h.session->metrics()->ok());
    h.runReads(8);  // Must complete; every sample call is a no-op.
    EXPECT_EQ(h.req->numResponses(), 8u);
    EXPECT_EQ(h.session->metrics()->samplesWritten(), 0u);
}

TEST(Metrics, IntervalThrottlesSampling) {
    // With an interval far beyond the run length only the baseline sample
    // at the start tick and the finish() tail sample are taken.
    const std::string path = ::testing::TempDir() + "/metrics_throttle.jsonl";
    testing::RecordHarness h{metricsOpts(path, 1'000'000'000'000ULL), "metrics_throttle"};
    h.runReads(16);
    const MetricsTimeline tl = readMetricsTimeline(path);
    EXPECT_EQ(tl.samples.size(), 2u);
    EXPECT_DOUBLE_EQ(tl.finalValue("system.mem0.numReads"), 16.0);
    std::remove(path.c_str());
}

TEST(Metrics, OptionsComeFromEnvironment) {
    ::setenv("GEM5RTL_METRICS", "/tmp/metrics-out", 1);
    ::setenv("GEM5RTL_METRICS_INTERVAL", "5000", 1);
    ObsOptions o = ObsOptions::fromEnv();
    EXPECT_TRUE(o.metricsEnabled);
    EXPECT_TRUE(o.anyEnabled());
    EXPECT_EQ(o.metricsDir, "/tmp/metrics-out");
    EXPECT_EQ(o.metricsIntervalTicks, 5'000u);

    ::setenv("GEM5RTL_METRICS", "1", 1);
    o = ObsOptions::fromEnv();
    EXPECT_TRUE(o.metricsEnabled);
    EXPECT_EQ(o.metricsDir, ".");

    ::setenv("GEM5RTL_METRICS", "0", 1);
    o = ObsOptions::fromEnv();
    EXPECT_FALSE(o.metricsEnabled);

    ::unsetenv("GEM5RTL_METRICS");
    ::unsetenv("GEM5RTL_METRICS_INTERVAL");
    o = ObsOptions::fromEnv();
    EXPECT_FALSE(o.metricsEnabled);
}

// The stride and interval variables parse strictly: "8x" is not 8, and a
// malformed, zero or negative value exits 2 naming the variable instead of
// silently keeping the default.
TEST(ObsOptionsDeathTest, MalformedEnvNumbersExitTwo) {
    constexpr const char* kVars[] = {"GEM5RTL_PROFILE_STRIDE", "GEM5RTL_TRACE_INTERVAL",
                                     "GEM5RTL_RECORD_INTERVAL", "GEM5RTL_METRICS_INTERVAL"};
    for (const char* var : kVars) {
        for (const char* bad : {"8x", "abc", "0", "-5", " 8"}) {
            ::setenv(var, bad, 1);
            EXPECT_EXIT(ObsOptions::fromEnv(), ::testing::ExitedWithCode(2), var)
                << var << '=' << bad;
        }
        ::setenv(var, "8", 1);
    }
    const ObsOptions o = ObsOptions::fromEnv();
    EXPECT_EQ(o.profileStride, 8u);
    EXPECT_EQ(o.counterIntervalTicks, 8u);
    EXPECT_EQ(o.recordIntervalTicks, 8u);
    EXPECT_EQ(o.metricsIntervalTicks, 8u);
    for (const char* var : kVars) ::unsetenv(var);
}

}  // namespace
}  // namespace g5r::obs
