// Evaluator identity at the bridge level: the same bitonic sort driven
// through the dlopen'd dirty-bit interpreter model and through the
// `g5r netlistc` compiled library (eval=compiled) must produce byte-identical
// flight recordings (the recorder is the witness — `g5r diff` exit 0 ==
// DivergenceReport{!diverged}) and equal sorted outputs read back over the
// device channel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bridge/rtl_object.hh"
#include "common/test_requester.hh"
#include "mem/packet.hh"
#include "obs/diff.hh"
#include "obs/session.hh"
#include "sim/packet_id.hh"
#include "sim/rng.hh"
#include "soc/model_loader.hh"

#ifndef G5R_MODEL_DIR
#error "tests must be compiled with -DG5R_MODEL_DIR"
#endif

namespace g5r {
namespace {

std::string tmpPath(const std::string& file) {
    return (std::filesystem::temp_directory_path() / file).string();
}

/// Sort @p data through the shared-library bitonic model with a flight
/// recording attached; returns the read-back (sorted) outputs.
std::vector<std::uint64_t> runRecordedSort(const std::string& config,
                                           const std::vector<std::uint64_t>& data,
                                           const std::string& recordPath) {
    Simulation sim;
    obs::ObsOptions opts;
    opts.recordEnabled = true;
    opts.recordPath = recordPath;
    opts.recordIntervalTicks = 100'000;
    auto session = obs::ObsSession::create(sim, opts, "compiled_identity");

    RtlObjectParams params;
    // eval=compiled resolves to the `g5r netlistc` library (libbitonic_cN.so),
    // everything else to the interpreted model.
    auto rtl = std::make_unique<RtlObject>(sim, "bitonic_obj", params,
                                           loadRtlModel("bitonic", config), nullptr);
    auto req = std::make_unique<testing::TestRequester>(sim, "host");
    req->port().bind(rtl->cpuSidePort(0));

    // Identical packet IDs per run: draw from a run-local counter, never the
    // process-global fallback (see tests/common/record_harness.hh).
    std::uint64_t packetIds = 0;
    PacketIdScope idScope{packetIds};

    const auto runUntilResponses = [&] {
        for (int slice = 0; slice < 1000 && !req->allResponsesReceived(); ++slice) {
            sim.run(sim.curTick() + 10'000);
        }
        ASSERT_TRUE(req->allResponsesReceived());
    };
    const auto writeReg = [&](std::uint64_t addr, std::uint64_t value) {
        auto pkt = makeWritePacket(addr, 8);
        pkt->set<std::uint64_t>(value);
        req->issueAt(sim.curTick(), std::move(pkt));
        runUntilResponses();
    };
    const auto readReg = [&](std::uint64_t addr) {
        req->issueAt(sim.curTick(), makeReadPacket(addr, 8));
        runUntilResponses();
        return req->responses().back().pkt->get<std::uint64_t>();
    };

    std::vector<std::uint64_t> sorted;
    for (std::size_t i = 0; i < data.size(); ++i) writeReg(8 * i, data[i]);
    writeReg(0x200, 1);  // Start.
    for (int spin = 0; spin < 100 && (readReg(0x208) & 2) == 0; ++spin) {
    }
    EXPECT_EQ(readReg(0x208) & 2, 2u) << "sort never finished";
    for (std::size_t i = 0; i < data.size(); ++i) {
        sorted.push_back(readReg(0x100 + 8 * i));
    }
    session->finish();
    return sorted;
}

// The native .so emitted by `g5r netlistc`, loaded over the same dlopen ABI,
// must be recording-identical to the dirty-bit interpreter on both lanes —
// the acceptance witness that codegen preserves per-tick device behaviour,
// not just final values.
class CompiledRecord : public ::testing::TestWithParam<unsigned> {};

TEST_P(CompiledRecord, CompiledModelIsRecordingIdenticalToBothInterpreters) {
    const unsigned n = GetParam();
    Rng rng{0xC0 + n};
    std::vector<std::uint64_t> data(n);
    for (auto& v : data) v = rng.below(100'000);

    const std::string base = "n=" + std::to_string(n);
    const std::string recDirty =
        tmpPath("g5r_cdirty_" + std::to_string(n) + ".g5rec");
    const std::string recCompiled =
        tmpPath("g5r_ccomp_" + std::to_string(n) + ".g5rec");

    const auto outDirty = runRecordedSort(base + ",eval=dirty", data, recDirty);
    const auto outCompiled =
        runRecordedSort(base + ",eval=compiled", data, recCompiled);

    std::vector<std::uint64_t> expected = data;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(outDirty, expected);
    EXPECT_EQ(outCompiled, outDirty);

    // Recorder identity: the library face of `g5r diff a b` returning 0.
    const auto rep = obs::diffRecordingFiles(recDirty, recCompiled, obs::DiffLane::kBoth);
    EXPECT_TRUE(rep.comparable) << rep.error;
    EXPECT_FALSE(rep.diverged) << rep.lane << " @ interval " << rep.intervalIndex
                               << ": " << rep.detail;

    std::remove(recDirty.c_str());
    std::remove(recCompiled.c_str());
}

INSTANTIATE_TEST_SUITE_P(Sizes, CompiledRecord, ::testing::Values(4u, 8u, 16u));

// A malformed config fails the load on both library paths, naming the
// config, so a bad size never runs as another size.
TEST(ModelLoader, RejectsMalformedBitonicConfigs) {
    for (const std::string config :
         {"n=12", "eval=compiled,n=12", "n=8x", "xn=8", "eval=fast", "eval=compiled,n=128"}) {
        try {
            loadRtlModel("bitonic", config);
            ADD_FAILURE() << "loaded with config '" << config << "'";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string{e.what()}.find(config), std::string::npos) << e.what();
        }
    }
    EXPECT_NE(loadRtlModel("bitonic", "eval=compiled,n=8"), nullptr);
}

}  // namespace
}  // namespace g5r
