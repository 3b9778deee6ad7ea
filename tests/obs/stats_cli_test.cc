// `g5r stats`: diff semantics (the CI perf-regression gate), threshold
// resolution, structural-loss violations, CLI exit codes, and render smoke.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "exp/json.hh"
#include "obs/metrics.hh"
#include "obs/stats_cli.hh"

namespace g5r::obs {
namespace {

/// One fig7-style hbm/q64 point. exp::Json has no erase(), so variants are
/// built, not mutated: @p includeP99 false leaves the metric out entirely.
exp::Json makePoint(double runtimeTicks, double p99 = 114688.0,
                    bool includeP99 = true, const char* memTech = "hbm") {
    exp::Json point = exp::Json::object();
    point["memTech"] = memTech;
    point["maxInflight"] = 64u;
    point["runtimeTicks"] = runtimeTicks;
    point["wallSeconds"] = 1.0;
    point["memLatencyP50"] = 21504.0;
    if (includeP99) point["memLatencyP99"] = p99;
    exp::Json one = exp::Json::object();
    one["count"] = std::uint64_t{100000};
    one["minTicks"] = 1500.0;
    one["meanTicks"] = 23456.5;
    one["maxTicks"] = 901234.0;
    one["p50Ticks"] = 21504.0;
    one["p99Ticks"] = p99;
    exp::Json lat = exp::Json::object();
    lat["nvdla0.dbbif"] = std::move(one);
    point["memLatency"] = std::move(lat);
    return point;
}

/// A minimal fig7-style BENCH document wrapping @p point.
exp::Json docWithPoint(exp::Json point) {
    exp::Json doc = exp::Json::object();
    doc["schema"] = 2;
    doc["bench"] = "fig7";
    doc["jobs"] = 2;
    exp::Json host = exp::Json::object();
    host["name"] = "somehost";
    host["threads"] = 8;
    doc["host"] = std::move(host);
    doc["points"] = exp::Json::array();
    doc["points"].push(std::move(point));
    return doc;
}

exp::Json benchDoc(double runtimeTicks, double p99 = 114688.0) {
    return docWithPoint(makePoint(runtimeTicks, p99));
}

std::string writeDoc(const std::string& name, const exp::Json& doc) {
    const std::string path = ::testing::TempDir() + "/" + name;
    std::ofstream out{path};
    out << doc.dump(2);
    return path;
}

TEST(StatsDiff, IdenticalDocumentsPass) {
    const exp::Json doc = benchDoc(1e6);
    const StatsDiffReport report = diffBenchDocuments(doc, doc, StatsDiffOptions{});
    EXPECT_TRUE(report.withinThresholds());
    EXPECT_EQ(report.pointsCompared, 1u);
    EXPECT_GE(report.metricsCompared, 3u);
    EXPECT_TRUE(report.violations.empty());
}

TEST(StatsDiff, RegressionBeyondThresholdFails) {
    const exp::Json base = benchDoc(1e6);
    const exp::Json cur = benchDoc(1.6e6);  // +60% runtime.
    const StatsDiffReport report = diffBenchDocuments(base, cur, StatsDiffOptions{});
    EXPECT_FALSE(report.withinThresholds());
    ASSERT_EQ(report.violations.size(), 1u);
    const StatsDiffViolation& v = report.violations[0];
    EXPECT_EQ(v.metric, "runtimeTicks");
    EXPECT_DOUBLE_EQ(v.baseline, 1e6);
    EXPECT_DOUBLE_EQ(v.current, 1.6e6);
    EXPECT_NEAR(v.relDelta, 0.6, 1e-9);
    EXPECT_DOUBLE_EQ(v.threshold, 0.25);
    EXPECT_NE(v.point.find("memTech=hbm"), std::string::npos);
    EXPECT_NE(v.point.find("maxInflight=64"), std::string::npos);

    // Within the default 25% the same pair passes.
    const StatsDiffReport small =
        diffBenchDocuments(base, benchDoc(1.2e6), StatsDiffOptions{});
    EXPECT_TRUE(small.withinThresholds());
}

TEST(StatsDiff, PerMetricThresholdOverrides) {
    const exp::Json base = benchDoc(1e6, 114688.0);
    const exp::Json cur = benchDoc(1e6, 137000.0);  // p99 +19.5%.
    // Default 25%: passes.
    EXPECT_TRUE(diffBenchDocuments(base, cur, StatsDiffOptions{}).withinThresholds());
    // Tighten memLatencyP99 to 10%: fails; other metrics keep the default.
    StatsDiffOptions opts;
    opts.perMetric.push_back(MetricThreshold{"memLatencyP99", 0.10});
    const StatsDiffReport report = diffBenchDocuments(base, cur, opts);
    ASSERT_EQ(report.violations.size(), 1u);
    EXPECT_EQ(report.violations[0].metric, "memLatencyP99");
    EXPECT_DOUBLE_EQ(report.violations[0].threshold, 0.10);
}

TEST(StatsDiff, HostDependentMetricsAreExcluded) {
    const exp::Json base = benchDoc(1e6);
    // Current run on a very different host, with very different wall time.
    exp::Json slowPoint = makePoint(1e6);
    slowPoint["wallSeconds"] = 5000.0;
    exp::Json cur = docWithPoint(std::move(slowPoint));
    cur["host"]["threads"] = 128;
    const StatsDiffReport report = diffBenchDocuments(base, cur, StatsDiffOptions{});
    EXPECT_TRUE(report.withinThresholds()) << formatStatsDiffReport(report, "b", "c");
}

TEST(StatsDiff, StructuralLossesAreViolations) {
    const exp::Json base = benchDoc(1e6);

    // Missing point: current has a different identity (ddr4, not hbm).
    const exp::Json curPoint =
        docWithPoint(makePoint(1e6, 114688.0, true, "ddr4"));
    const StatsDiffReport missingPoint =
        diffBenchDocuments(base, curPoint, StatsDiffOptions{});
    ASSERT_FALSE(missingPoint.violations.empty());
    EXPECT_EQ(missingPoint.violations[0].note, "missing point");

    // Missing metric: current dropped memLatencyP99.
    const exp::Json curMetric = docWithPoint(makePoint(1e6, 114688.0, false));
    const StatsDiffReport missingMetric =
        diffBenchDocuments(base, curMetric, StatsDiffOptions{});
    ASSERT_EQ(missingMetric.violations.size(), 1u);
    EXPECT_EQ(missingMetric.violations[0].note, "missing metric");
    EXPECT_EQ(missingMetric.violations[0].metric, "memLatencyP99");

    // The reverse: a metric only current carries is a violation too, so a
    // port that goes from no traffic (no row) to some cannot pass silently.
    exp::Json extraPoint = makePoint(1e6);
    extraPoint["memLatencyP999"] = 999999.0;
    exp::Json newRow = exp::Json::object();
    newRow["count"] = std::uint64_t{1};
    extraPoint["memLatency"]["cpu0.dcache"] = std::move(newRow);
    const StatsDiffReport extraMetric = diffBenchDocuments(
        base, docWithPoint(std::move(extraPoint)), StatsDiffOptions{});
    ASSERT_EQ(extraMetric.violations.size(), 2u)
        << formatStatsDiffReport(extraMetric, "b", "c");
    EXPECT_EQ(extraMetric.violations[0].note, "unexpected metric");
    EXPECT_EQ(extraMetric.violations[0].metric, "memLatency.cpu0.dcache.count");
    EXPECT_EQ(extraMetric.violations[1].note, "unexpected metric");
    EXPECT_EQ(extraMetric.violations[1].metric, "memLatencyP999");
    EXPECT_DOUBLE_EQ(extraMetric.violations[1].current, 999999.0);
    EXPECT_NE(formatStatsDiffReport(extraMetric, "b", "c").find("unexpected metric"),
              std::string::npos);

    // Excluded (host-dependent) metrics stay exempt in that direction too.
    exp::Json exemptPoint = makePoint(1e6);
    exemptPoint["sweepWallSeconds"] = 3.0;
    exemptPoint["profileBuckets"] = exp::Json::object();
    exemptPoint["profileBuckets"]["rtl"] = 0.5;
    EXPECT_TRUE(diffBenchDocuments(base, docWithPoint(std::move(exemptPoint)),
                                   StatsDiffOptions{})
                    .withinThresholds());

    // Bench name mismatch: not comparable at all.
    exp::Json other = benchDoc(1e6);
    other["bench"] = "fig6";
    const StatsDiffReport mismatch = diffBenchDocuments(base, other, StatsDiffOptions{});
    EXPECT_FALSE(mismatch.comparable);
    EXPECT_FALSE(mismatch.error.empty());
}

MetricsTimeline timelineOf(double finalReads, double finalP99) {
    MetricsTimeline tl;
    tl.schema = 1;
    tl.run = "t";
    tl.intervalTicks = 1000;
    tl.endTick = 5000;
    MetricsSample s1;
    s1.tick = 1000;
    s1.deltas.emplace_back("mem.numReads", finalReads / 2);
    s1.deltas.emplace_back("bus.latencyHist.cpu0.p99", finalP99);
    MetricsSample s2;
    s2.tick = 5000;
    s2.deltas.emplace_back("mem.numReads", finalReads / 2);
    tl.samples.push_back(std::move(s1));
    tl.samples.push_back(std::move(s2));
    return tl;
}

TEST(StatsDiff, TimelinesCompareByFinalValue) {
    const MetricsTimeline base = timelineOf(100.0, 20000.0);
    EXPECT_TRUE(diffTimelines(base, timelineOf(100.0, 20000.0), StatsDiffOptions{})
                    .withinThresholds());

    const StatsDiffReport report =
        diffTimelines(base, timelineOf(100.0, 40000.0), StatsDiffOptions{});
    ASSERT_EQ(report.violations.size(), 1u);
    EXPECT_EQ(report.violations[0].metric, "bus.latencyHist.cpu0.p99");
    EXPECT_NEAR(report.violations[0].relDelta, 1.0, 1e-9);

    // A channel present in the baseline but absent from current is a loss.
    MetricsTimeline lossy = timelineOf(100.0, 20000.0);
    for (MetricsSample& s : lossy.samples) {
        std::erase_if(s.deltas, [](const auto& d) { return d.first != "mem.numReads"; });
    }
    const StatsDiffReport loss = diffTimelines(base, lossy, StatsDiffOptions{});
    ASSERT_EQ(loss.violations.size(), 1u);
    EXPECT_EQ(loss.violations[0].note, "missing metric");

    // And the reverse: a channel only current carries is unexpected.
    const StatsDiffReport gain = diffTimelines(lossy, base, StatsDiffOptions{});
    ASSERT_EQ(gain.violations.size(), 1u);
    EXPECT_EQ(gain.violations[0].note, "unexpected metric");
    EXPECT_EQ(gain.violations[0].metric, "bus.latencyHist.cpu0.p99");
}

int runCli(std::vector<const char*> argv) {
    argv.insert(argv.begin(), "stats");
    return statsCliMain(static_cast<int>(argv.size()), argv.data());
}

TEST(StatsCli, DiffExitCodesMatchTheGateContract) {
    const std::string basePath = writeDoc("cli_base.json", benchDoc(1e6));
    const std::string samePath = writeDoc("cli_same.json", benchDoc(1e6));
    const std::string worsePath = writeDoc("cli_worse.json", benchDoc(1.6e6));

    EXPECT_EQ(runCli({"diff", basePath.c_str(), samePath.c_str()}), 0);
    EXPECT_EQ(runCli({"diff", basePath.c_str(), worsePath.c_str()}), 1);
    EXPECT_EQ(runCli({"diff", basePath.c_str(), worsePath.c_str(), "--threshold", "0.7"}), 0);
    EXPECT_EQ(runCli({"diff", basePath.c_str(), worsePath.c_str(), "--metric",
                      "runtimeTicks=0.9"}),
              0);
    EXPECT_EQ(runCli({"diff", basePath.c_str()}), 2);              // Missing operand.
    EXPECT_EQ(runCli({"diff", basePath.c_str(), "/no/such"}), 2);  // Unreadable.
    EXPECT_EQ(runCli({"frobnicate"}), 2);                          // Unknown command.
    EXPECT_EQ(runCli({"percentiles", basePath.c_str()}), 0);

    for (const std::string& p : {basePath, samePath, worsePath}) std::remove(p.c_str());
}

// A bare --metric NAME takes the final --threshold, whichever side of it
// that flag appears on.
TEST(StatsCli, BareMetricTakesTheFinalThreshold) {
    const std::string basePath = writeDoc("cli_bare_base.json", benchDoc(1e6));
    const std::string worsePath = writeDoc("cli_bare_worse.json", benchDoc(1.1e6));
    const char* base = basePath.c_str();
    const char* worse = worsePath.c_str();

    // +10% runtimeTicks passes the 0.25 default...
    EXPECT_EQ(runCli({"diff", base, worse, "--metric", "runtimeTicks"}), 0);
    // ...and fails a 0 threshold in either argument order.
    EXPECT_EQ(runCli({"diff", base, worse, "--threshold", "0", "--metric", "runtimeTicks"}), 1);
    EXPECT_EQ(runCli({"diff", base, worse, "--metric", "runtimeTicks", "--threshold", "0"}), 1);
    // An explicit NAME=F is kept as given.
    EXPECT_EQ(
        runCli({"diff", base, worse, "--metric", "runtimeTicks=0.2", "--threshold", "0"}), 0);

    for (const std::string& p : {basePath, worsePath}) std::remove(p.c_str());
}

TEST(StatsCli, MalformedThresholdsAreUsageErrors) {
    const std::string basePath = writeDoc("cli_bad_base.json", benchDoc(1e6));
    const char* base = basePath.c_str();

    for (const char* bad : {"abc", "0.25x", "", "-0.1", "nan", "NaN"}) {
        SCOPED_TRACE(std::string{"value \""} + bad + '"');
        EXPECT_EQ(runCli({"diff", base, base, "--threshold", bad}), 2);
        const std::string spec = std::string{"runtimeTicks="} + bad;
        EXPECT_EQ(runCli({"diff", base, base, "--metric", spec.c_str()}), 2);
    }
    // Well-formed values still parse.
    EXPECT_EQ(runCli({"diff", base, base, "--threshold", "0"}), 0);
    EXPECT_EQ(runCli({"diff", base, base, "--threshold", "1e-13"}), 0);
    EXPECT_EQ(runCli({"diff", base, base, "--metric", "meanTicks=1e-13"}), 0);

    std::remove(basePath.c_str());
}

TEST(StatsCli, MalformedTimelineMaxIsAUsageError) {
    const std::string path = ::testing::TempDir() + "/cli_max.metrics.jsonl";
    {
        std::ofstream out(path);
        out << R"({"g5rMetrics":1,"schema":1,"run":"t","intervalTicks":1000})" "\n"
            << R"({"t":1000,"d":{"mem.numReads":50,"mem.numWrites":7}})" "\n"
            << R"({"end":1000,"samples":1})" "\n";
    }
    EXPECT_EQ(runCli({"timeline", path.c_str(), "--max", "1"}), 0);
    EXPECT_EQ(runCli({"timeline", path.c_str(), "--max", "0"}), 0);  // No limit.
    // 0 means "no limit", so a typo must not quietly read as a number.
    for (const char* bad : {"abc", "8x", "", "-1", " 2"}) {
        SCOPED_TRACE(std::string{"value \""} + bad + '"');
        EXPECT_EQ(runCli({"timeline", path.c_str(), "--max", bad}), 2);
    }
    std::remove(path.c_str());
}

TEST(StatsCli, RenderersProduceReadableOutput) {
    const MetricsTimeline tl = timelineOf(100.0, 20000.0);
    const std::string strip = renderTimeline(tl, "", 0);
    EXPECT_NE(strip.find("mem.numReads"), std::string::npos);
    EXPECT_NE(strip.find("final 100"), std::string::npos);
    // The filter drops non-matching channels.
    const std::string filtered = renderTimeline(tl, "latencyHist", 0);
    EXPECT_EQ(filtered.find("mem.numReads"), std::string::npos);
    EXPECT_NE(filtered.find("bus.latencyHist.cpu0.p99"), std::string::npos);

    const std::string table = renderBenchPercentiles(benchDoc(1e6));
    EXPECT_NE(table.find("memTech=hbm"), std::string::npos);
    EXPECT_NE(table.find("p50"), std::string::npos);

    const StatsDiffReport report =
        diffBenchDocuments(benchDoc(1e6), benchDoc(1.6e6), StatsDiffOptions{});
    const std::string text = formatStatsDiffReport(report, "a.json", "b.json");
    EXPECT_NE(text.find("VIOLATION"), std::string::npos);
    EXPECT_NE(text.find("runtimeTicks"), std::string::npos);
    EXPECT_NE(text.find("FAIL"), std::string::npos);
}

}  // namespace
}  // namespace g5r::obs
