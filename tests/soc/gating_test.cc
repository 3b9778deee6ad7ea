// Idle-tick gating with several RTL objects on one clock: every multi-
// instance point of the fig. 7 sweep (Sanity3, 2 and 4 NVDLAs, every memory
// technology and in-flight window, both memory paths) must finish each
// accelerator at the same tick and move the same packets gated as ungated.
// A woken tick that ran after its same-edge peers instead of in its own
// slot used to swap two instances' finish ticks while runtimeTicks stayed
// equal, so both per-accelerator ticks and the packet lane are compared.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "obs/diff.hh"
#include "sim/logging.hh"
#include "soc/experiments.hh"

namespace g5r {
namespace {

// (accelerators, memory path, in-flight window): one fig. 7 column each.
using Column = std::tuple<unsigned, MemPath, unsigned>;

class MultiInstanceGating : public ::testing::TestWithParam<Column> {};

TEST_P(MultiInstanceGating, GatedEqualsUngatedOnEveryFig7Point) {
    const auto [accels, memPath, inflight] = GetParam();
    std::vector<MemTech> techs = experiments::memTechSeries();
    if (memPath == MemPath::kDirect) techs.insert(techs.begin(), MemTech::kIdeal);
    for (const MemTech tech : techs) {
        experiments::DseRunConfig gated;
        gated.shape = models::sanity3Shape(1);
        gated.workloadName = "sanity3";
        gated.numAccelerators = accels;
        gated.maxInflight = inflight;
        gated.numCores = 0;
        gated.memTech = tech;
        gated.memPath = memPath;
        gated.obs.recordEnabled = true;
        experiments::DseRunConfig ungated = gated;
        ungated.gateIdleTicks = false;
        const std::string stem = ::testing::TempDir() + "/multi_n" +
                                 std::to_string(accels) + "_" +
                                 memPathName(memPath) + "_q" +
                                 std::to_string(inflight) + "_";
        gated.obs.recordPath = stem + "gated.g5rec";
        ungated.obs.recordPath = stem + "ungated.g5rec";

        const std::string point = memTechName(tech);
        const auto g = experiments::runNvdlaDse(gated);
        const auto u = experiments::runNvdlaDse(ungated);
        ASSERT_TRUE(g.completed && g.checksumsOk) << point;
        ASSERT_TRUE(u.completed && u.checksumsOk) << point;
        EXPECT_EQ(g.perAcceleratorTicks, u.perAcceleratorTicks) << point;
        const obs::DivergenceReport rep = obs::diffRecordingFiles(
            g.recordPath, u.recordPath, obs::DiffLane::kPacketsOnly);
        ASSERT_TRUE(rep.comparable) << point << ": " << rep.error;
        EXPECT_FALSE(rep.diverged)
            << point << "\n"
            << obs::formatDivergenceReport(rep, g.recordPath, u.recordPath);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Fig7, MultiInstanceGating,
    ::testing::Combine(::testing::Values(2u, 4u),
                       ::testing::Values(MemPath::kDirect, MemPath::kDmaSpm),
                       ::testing::ValuesIn(experiments::inflightSweep())),
    [](const ::testing::TestParamInfo<Column>& param) {
        return strCat('n', std::get<0>(param.param), '_', memPathName(std::get<1>(param.param)),
                      "_q", std::get<2>(param.param));
    });

}  // namespace
}  // namespace g5r
