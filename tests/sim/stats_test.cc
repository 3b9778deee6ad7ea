// Statistics framework: scalars, formulas, histograms, lookup and dumps.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "exp/json.hh"
#include "sim/logging.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"

namespace g5r {
namespace {

TEST(Stats, ScalarAccumulates) {
    stats::Group g{"grp"};
    auto& s = g.scalar("count", "a counter");
    EXPECT_EQ(s.value(), 0.0);
    ++s;
    s += 4.5;
    s.inc();
    EXPECT_DOUBLE_EQ(s.value(), 6.5);
    s.reset();
    EXPECT_EQ(s.value(), 0.0);
}

TEST(Stats, FormulaEvaluatesLazily) {
    stats::Group g{"grp"};
    auto& insts = g.scalar("insts", "instructions");
    auto& cycles = g.scalar("cycles", "cycles");
    auto& ipc = g.formula("ipc", "instructions per cycle", [&] {
        return cycles.value() > 0 ? insts.value() / cycles.value() : 0.0;
    });
    EXPECT_EQ(ipc.value(), 0.0);
    insts += 30;
    cycles += 10;
    EXPECT_DOUBLE_EQ(ipc.value(), 3.0);
    insts += 10;
    EXPECT_DOUBLE_EQ(ipc.value(), 4.0);
}

TEST(Stats, GroupFindQualifiesNames) {
    stats::Group g{"cpu0"};
    auto& s = g.scalar("commits", "committed");
    s += 7;
    const stats::Stat* found = g.find("commits");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->name(), "cpu0.commits");
    EXPECT_DOUBLE_EQ(found->value(), 7.0);
    EXPECT_EQ(g.find("nope"), nullptr);
}

TEST(Stats, SimulationWideLookup) {
    Simulation sim;
    SimObject a{sim, "sys.cpu0"};
    SimObject b{sim, "sys.cpu1"};
    a.statsGroup().scalar("commits", "x") += 11;
    b.statsGroup().scalar("commits", "x") += 22;

    const auto* s0 = sim.findStat("sys.cpu0.commits");
    const auto* s1 = sim.findStat("sys.cpu1.commits");
    ASSERT_NE(s0, nullptr);
    ASSERT_NE(s1, nullptr);
    EXPECT_DOUBLE_EQ(s0->value(), 11.0);
    EXPECT_DOUBLE_EQ(s1->value(), 22.0);
    EXPECT_EQ(sim.findStat("sys.cpu2.commits"), nullptr);
    EXPECT_EQ(sim.findStat("sys.cpu0"), nullptr);
}

TEST(Stats, GroupDumpJsonRoundTrips) {
    stats::Group g{"mem"};
    g.scalar("reads", "read count") += 3;
    auto& h = g.histogram("lat", "latency");
    for (const std::uint64_t v : {10u, 20u, 30u}) h.sampleInt(v);

    // Serialize then re-parse through the same exp/json model CI uses.
    const exp::Json doc = exp::Json::parse(g.dumpJson().dump());
    EXPECT_DOUBLE_EQ(doc.at("reads").asDouble(), 3.0);
    const exp::Json& lat = doc.at("lat");
    EXPECT_EQ(lat.at("count").asInt(), 3);
    EXPECT_DOUBLE_EQ(lat.at("min").asDouble(), 10.0);
    EXPECT_DOUBLE_EQ(lat.at("mean").asDouble(), 20.0);
    EXPECT_DOUBLE_EQ(lat.at("max").asDouble(), 30.0);
    EXPECT_DOUBLE_EQ(lat.at("p50").asDouble(), 20.0);
}

TEST(Stats, DumpJsonEmptyDistributionEmitsZeros) {
    // A never-sampled histogram must serialize as zeros, not as its internal
    // min/max sentinels (UINT64_MAX / 0) — downstream JSON consumers treat
    // min > max as corruption.
    stats::Group g{"mem"};
    g.histogram("latHist", "latency histogram");
    const exp::Json doc = exp::Json::parse(g.dumpJson().dump());
    const exp::Json& hist = doc.at("latHist");
    EXPECT_EQ(hist.at("count").asInt(), 0);
    EXPECT_DOUBLE_EQ(hist.at("min").asDouble(), 0.0);
    EXPECT_DOUBLE_EQ(hist.at("mean").asDouble(), 0.0);
    EXPECT_DOUBLE_EQ(hist.at("max").asDouble(), 0.0);
    EXPECT_DOUBLE_EQ(hist.at("p50").asDouble(), 0.0);
    EXPECT_DOUBLE_EQ(hist.at("p999").asDouble(), 0.0);
}

TEST(Stats, DumpJsonSingleSampleCollapsesToThatValue) {
    stats::Group g{"mem"};
    auto& h = g.histogram("latHist", "latency histogram");
    h.sampleInt(42);
    const exp::Json doc = exp::Json::parse(g.dumpJson().dump());
    const exp::Json& j = doc.at("latHist");
    EXPECT_EQ(j.at("count").asInt(), 1);
    // Every summary field and every quantile of a one-sample histogram is
    // that sample.
    for (const char* key : {"min", "mean", "max", "p50", "p90", "p99", "p999"}) {
        EXPECT_DOUBLE_EQ(j.at(key).asDouble(), 42.0) << key;
    }
}

TEST(Stats, FindScalesAsIndexNotScan) {
    // find() is backed by a name index; registering many stats and looking
    // each one up exercises index consistency across growth.
    stats::Group g{"big"};
    for (int i = 0; i < 200; ++i) {
        g.scalar(strCat('s', i), "x").inc(i);
    }
    for (int i = 0; i < 200; ++i) {
        const stats::Stat* s = g.find(strCat('s', i));
        ASSERT_NE(s, nullptr) << i;
        EXPECT_DOUBLE_EQ(s->value(), i);
    }
    EXPECT_EQ(g.find("s200"), nullptr);
}

TEST(Stats, DumpJsonLeavesTextDumpUnchanged) {
    // The JSON view is additive: the text dump must not change shape when
    // dumpJson() has been called (tools diff text dumps across runs).
    stats::Group g{"mem"};
    g.scalar("reads", "read count") += 3;
    std::ostringstream before;
    g.dump(before);
    (void)g.dumpJson();
    std::ostringstream after;
    g.dump(after);
    EXPECT_EQ(before.str(), after.str());
}

TEST(Stats, SimulationDumpStatsJsonKeyedByObject) {
    Simulation sim;
    SimObject a{sim, "sys.cpu0"};
    a.statsGroup().scalar("commits", "x") += 11;
    const exp::Json doc = exp::Json::parse(sim.dumpStatsJson().dump());
    EXPECT_DOUBLE_EQ(doc.at("sys.cpu0").at("commits").asDouble(), 11.0);
}

TEST(Stats, DumpContainsNamesAndValues) {
    stats::Group g{"mem"};
    g.scalar("reads", "read count") += 3;
    std::ostringstream os;
    g.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("mem.reads"), std::string::npos);
    EXPECT_NE(out.find("3"), std::string::npos);
    EXPECT_NE(out.find("read count"), std::string::npos);
}

}  // namespace
}  // namespace g5r
