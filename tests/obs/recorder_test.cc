// Flight recorder: sidecar round trip through Recording::load, byte-identical
// recordings at any --jobs count (the determinism contract `g5r diff` rests
// on; TSan covers the data-race side), black-box ring behavior, and the
// panic-time black-box dump.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/record_harness.hh"
#include "exp/runner.hh"
#include "obs/diff.hh"
#include "obs/recorder.hh"
#include "obs/recording.hh"

namespace g5r::obs {
namespace {

std::string slurp(const std::string& path) {
    std::ifstream in{path};
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

ObsOptions recordOpts(const std::string& path, Tick intervalTicks = 2'000) {
    ObsOptions o;
    o.recordEnabled = true;
    o.recordPath = path;
    o.recordIntervalTicks = intervalTicks;
    return o;
}

TEST(Recorder, SidecarRoundTripsThroughRecordingLoad) {
    const std::string path = ::testing::TempDir() + "/rec_roundtrip.g5rec";
    testing::RecordHarness h{recordOpts(path), "rec_roundtrip"};
    ASSERT_NE(h.session, nullptr);
    ASSERT_NE(h.session->recorder(), nullptr);
    ASSERT_TRUE(h.session->recorder()->ok());
    h.runReads(16);

    const Recording rec = Recording::load(path);
    EXPECT_EQ(rec.runLabel, "rec_roundtrip");
    EXPECT_EQ(rec.intervalTicks, 2'000u);
    EXPECT_TRUE(rec.hasEnd);
    EXPECT_GT(rec.finalTick, 0u);
    EXPECT_EQ(rec.totalDispatches, h.sim.eventQueue().numProcessed());
    EXPECT_GT(rec.totalPackets, 0u);
    ASSERT_FALSE(rec.intervals.empty());

    // The last interval's cumulative digests are the run's final digests.
    const IntervalRecord& last = rec.intervals.back();
    EXPECT_EQ(last.cumDispatchDigest, rec.finalDispatchDigest);
    EXPECT_EQ(last.cumPacketDigest, rec.finalPacketDigest);

    // Interval counts partition the totals.
    std::uint64_t dispatches = 0, packets = 0;
    for (const IntervalRecord& iv : rec.intervals) {
        dispatches += iv.dispatchCount;
        packets += iv.packetCount;
        // Per-object rows partition the interval's dispatch count.
        std::uint64_t byObject = 0;
        for (const ObjEntry& ob : iv.objects) byObject += ob.count;
        EXPECT_EQ(byObject, iv.dispatchCount);
    }
    EXPECT_EQ(dispatches, rec.totalDispatches);
    EXPECT_EQ(packets, rec.totalPackets);

    // The name table covers the objects that dispatched.
    EXPECT_EQ(rec.objectName(0), "(unattributed)");
    bool sawMem = false, sawCpu = false;
    for (const std::string& name : rec.objectNames) {
        sawMem = sawMem || name == "system.mem0";
        sawCpu = sawCpu || name == "system.cpu0";
    }
    EXPECT_TRUE(sawMem);
    EXPECT_TRUE(sawCpu);
    std::remove(path.c_str());
}

// The determinism contract: identical runs produce byte-identical .g5rec
// files whether the sweep ran on one thread or four. Under TSan this doubles
// as the recorder's thread-safety audit (sessions share nothing, but the
// panic-hook registry and slot allocation paths all execute concurrently).
TEST(Recorder, RecordingsAreByteIdenticalAcrossRunnerJobs) {
    constexpr int kRuns = 4;
    const auto makeTasks = [](const std::string& tag) {
        std::vector<exp::Task<std::string>> tasks;
        for (int t = 0; t < kRuns; ++t) {
            const std::string path =
                ::testing::TempDir() + "/rec_" + tag + "_" + std::to_string(t) + ".g5rec";
            tasks.push_back(exp::Task<std::string>{
                "rec/" + tag + std::to_string(t), [t, path] {
                    testing::RecordHarness h{recordOpts(path),
                                             "rec_run" + std::to_string(t)};
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
        const std::string& pathS = serial[static_cast<std::size_t>(t)].value;
        const std::string& pathP = parallel[static_cast<std::size_t>(t)].value;
        const std::string bytesS = slurp(pathS);
        const std::string bytesP = slurp(pathP);
        ASSERT_FALSE(bytesS.empty());
        if (bytesS != bytesP) {
            const DivergenceReport rep = diffRecordingFiles(pathS, pathP);
            ADD_FAILURE() << "jobs-1 and jobs-4 recordings differ:\n"
                          << formatDivergenceReport(rep, "jobs1", "jobs4");
        }
        std::remove(pathS.c_str());
        std::remove(pathP.c_str());
    }
}

TEST(Recorder, BlackBoxRingKeepsOnlyNewestEntries) {
    const std::string path = ::testing::TempDir() + "/rec_ring.g5rec";
    ObsOptions opts = recordOpts(path);
    opts.blackBoxDepth = 4;
    testing::RecordHarness h{opts, "rec_ring"};
    h.runReads(8);

    const Recording rec = Recording::load(path);
    const std::uint64_t pushed = rec.totalDispatches + rec.totalPackets;
    ASSERT_GT(pushed, 4u);  // Enough traffic to wrap the ring.
    ASSERT_EQ(rec.blackBox.size(), 4u);
    // Oldest first, consecutive, and ending at the very last recorded event.
    for (std::size_t i = 1; i < rec.blackBox.size(); ++i) {
        EXPECT_EQ(rec.blackBox[i].seq, rec.blackBox[i - 1].seq + 1);
    }
    EXPECT_EQ(rec.blackBox.back().seq, pushed);  // seq counts from 1.
    std::remove(path.c_str());
}

TEST(Recorder, UnopenablePathDegradesToBlackBoxOnly) {
    Recorder rec{"/nonexistent-g5r-dir/out.g5rec", "degraded", 1'000, 8};
    EXPECT_FALSE(rec.ok());
    rec.noteObjectName(1, "system.dev");
    rec.recordDispatch(5, 1, "system.dev.ev", digestOf("system.dev.ev"));
    rec.recordPacket(7, 1, 'I', 42, 0x100, 64, true);
    rec.finish(10);  // Must not crash with no file behind it.
    const std::string report = rec.blackBoxReport();
    EXPECT_NE(report.find("system.dev.ev"), std::string::npos);
    EXPECT_NE(report.find("issue id=42"), std::string::npos);
}

// The "black box" promise: panic() dumps the last K events to stderr, after
// the panic message itself, so a crash report always carries the event
// neighborhood.
TEST(RecorderDeath, PanicDumpsBlackBoxAfterPanicMessage) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string path = ::testing::TempDir() + "/rec_panic.g5rec";
    const auto crash = [&path] {
        Recorder rec{path, "panic-run", 1'000, 8};
        rec.noteObjectName(1, "system.dev");
        rec.recordDispatch(5, 1, "system.dev.ev", digestOf("system.dev.ev"));
        panic("recorder black box check");
    };
    EXPECT_DEATH(crash(),
                 "panic: recorder black box check(.|\n)*black box \\[panic-run\\]"
                 "(.|\n)*dispatch \\[system\\.dev\\] system\\.dev\\.ev");
}

}  // namespace
}  // namespace g5r::obs
