// Bitonic sorter model (GHDL path) through the C ABI: configuration,
// pipeline timing, sorting correctness across sizes and random vectors.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "bridge/rtl_model.hh"
#include "sim/rng.hh"

extern "C" const G5rRtlModelApi* g5r_bitonic_model_api();

namespace g5r {
namespace {

class BitonicHarness {
public:
    explicit BitonicHarness(const std::string& config = "n=16")
        : model_(g5r_bitonic_model_api(), config) {
        model_.reset();
    }

    G5rRtlOutput tick(const G5rRtlInput& in = {}) {
        G5rRtlOutput out{};
        model_.tick(in, out);
        return out;
    }

    void writeReg(std::uint64_t addr, std::uint64_t data) {
        G5rRtlInput in{};
        in.dev_valid = 1;
        in.dev_write = 1;
        in.dev_addr = addr;
        in.dev_wdata = data;
        tick(in);
    }

    std::uint64_t readReg(std::uint64_t addr) {
        G5rRtlInput in{};
        in.dev_valid = 1;
        in.dev_addr = addr;
        G5rRtlOutput out = tick(in);
        EXPECT_EQ(out.dev_ready, 1);
        out = tick();
        EXPECT_EQ(out.dev_resp_valid, 1);
        return out.dev_rdata;
    }

    std::vector<std::int64_t> sort(const std::vector<std::int64_t>& data) {
        for (std::size_t i = 0; i < data.size(); ++i) {
            writeReg(8 * i, static_cast<std::uint64_t>(data[i]));
        }
        writeReg(0x200, 1);  // Start.
        // Run until done (pipeline depth cycles).
        for (int t = 0; t < 200; ++t) {
            if (tick().done != 0) break;
        }
        std::vector<std::int64_t> out(data.size());
        for (std::size_t i = 0; i < data.size(); ++i) {
            out[i] = static_cast<std::int64_t>(readReg(0x100 + 8 * i));
        }
        return out;
    }

private:
    ApiRtlModel model_;
};

TEST(BitonicModel, ReportsConfiguredSize) {
    BitonicHarness b{"n=8"};
    EXPECT_EQ(b.readReg(0x210), 8u);
    BitonicHarness d{""};
    EXPECT_EQ(d.readReg(0x210), 16u);  // Default.
}

TEST(BitonicModel, SortsAFixedVector) {
    BitonicHarness b{"n=8"};
    const auto out = b.sort({5, -3, 9, 0, 2, 2, -7, 100});
    EXPECT_EQ(out, (std::vector<std::int64_t>{-7, -3, 0, 2, 2, 5, 9, 100}));
}

TEST(BitonicModel, TakesPipelineDepthCyclesBeforeDone) {
    BitonicHarness b{"n=16"};  // log2=4 -> 10 stages.
    for (std::size_t i = 0; i < 16; ++i) b.writeReg(8 * i, i);
    b.writeReg(0x200, 1);
    int cyclesToDone = 0;
    while (b.tick().done == 0) {
        ++cyclesToDone;
        ASSERT_LT(cyclesToDone, 100);
    }
    EXPECT_GE(cyclesToDone, 8);   // ~stage count.
    EXPECT_LE(cyclesToDone, 12);
    // Status register reflects done.
    EXPECT_EQ(b.readReg(0x208) & 2u, 2u);
}

TEST(BitonicModel, TracingIsUnsupportedOnTheGhdlPath) {
    ApiRtlModel model{g5r_bitonic_model_api(), "n=4"};
    EXPECT_FALSE(model.traceStart("/tmp/never.vcd"));
}

class BitonicRandomSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitonicRandomSweep, MatchesStdSort) {
    const unsigned n = GetParam();
    BitonicHarness b{"n=" + std::to_string(n)};
    Rng rng{n * 131};
    for (int trial = 0; trial < 5; ++trial) {
        std::vector<std::int64_t> data(n);
        for (auto& v : data) v = static_cast<std::int64_t>(rng.below(10000)) - 5000;
        auto expected = data;
        std::sort(expected.begin(), expected.end());
        EXPECT_EQ(b.sort(data), expected) << "n=" << n << " trial=" << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitonicRandomSweep, ::testing::Values(2u, 4u, 8u, 16u, 32u));

TEST(BitonicModel, RejectsBadConfig) {
    // A bad size or eval= value fails create(), and the bridge's error names
    // the config.
    for (const char* config : {"n=3", "n=12", "n=8x", "eval=fast"}) {
        try {
            BitonicHarness b{config};
            ADD_FAILURE() << "created with config '" << config << "'";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string{e.what()}.find(config), std::string::npos) << e.what();
        }
    }
}

}  // namespace
}  // namespace g5r
