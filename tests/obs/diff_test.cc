// First-divergence finder: binary-search localization over synthetic
// recordings (interval, lane, owning-object and tail semantics), plus the
// golden end-to-end case — a FlakyForwarder injecting one deterministic
// retry diverges two otherwise-identical runs, and the finder names the
// forwarder and the first interval.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/record_harness.hh"
#include "exp/json.hh"
#include "obs/diff.hh"

namespace g5r::obs {
namespace {

std::string tempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
}

void writeFile(const std::string& path, const std::string& text) {
    std::ofstream out{path};
    out << text;
}

// A synthetic 16-hex digest: deterministic, distinct per tag.
std::string dig(unsigned tag) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016x", tag);
    return buf;
}

// Build a recording with intervals 0..7 whose cumulative dispatch digests
// follow @p cums (packet lane constant and identical across sides).
std::string eightIntervals(const std::string& label, const unsigned (&cums)[8]) {
    std::string text = "g5rec 1\nrun " + label + "\ninterval 1000\n";
    for (unsigned i = 0; i < 8; ++i) {
        text += "iv " + std::to_string(i) + " " + std::to_string(i * 1000) + " 4 " +
                dig(0x100 + i) + " " + dig(cums[i]) + " 2 " + dig(0x200) + " " +
                dig(0x300) + "\n";
        if (i == 5) {
            // Per-object rows of the interval the tests diverge in: slot 1
            // (system.alpha, first dispatch 5100) and slot 2 (system.beta,
            // first dispatch 5020).
            text += "ob 1 3 " + dig(0x400 + cums[i]) + " 5100\n";
            text += "ob 2 2 " + dig(0x500 + cums[i]) + " 5020\n";
        }
    }
    text += "obj 1 system.alpha\nobj 2 system.beta\n";
    text += "bb 1 D 5050 2 beta dispatch near the divergence\n";
    text += "end 8000 32 16 " + dig(cums[7]) + " " + dig(0x300) + "\n";
    return text;
}

TEST(DiffFinder, IdenticalRecordingsDoNotDiverge) {
    const unsigned cums[8] = {10, 11, 12, 13, 14, 15, 16, 17};
    const std::string a = tempPath("diff_ident_a.g5rec");
    const std::string b = tempPath("diff_ident_b.g5rec");
    writeFile(a, eightIntervals("same", cums));
    writeFile(b, eightIntervals("same", cums));
    const DivergenceReport rep = diffRecordingFiles(a, b);
    EXPECT_TRUE(rep.comparable);
    EXPECT_FALSE(rep.diverged);
    EXPECT_NE(formatDivergenceReport(rep, "a", "b").find("identical"), std::string::npos);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(DiffFinder, BinarySearchFindsFirstDivergentInterval) {
    // Sides agree through interval 4; dispatch cumulative digests split at 5.
    const unsigned cumsA[8] = {10, 11, 12, 13, 14, 15, 16, 17};
    const unsigned cumsB[8] = {10, 11, 12, 13, 14, 95, 96, 97};
    const std::string a = tempPath("diff_mid_a.g5rec");
    const std::string b = tempPath("diff_mid_b.g5rec");
    writeFile(a, eightIntervals("side_a", cumsA));
    writeFile(b, eightIntervals("side_b", cumsB));
    const DivergenceReport rep = diffRecordingFiles(a, b);
    ASSERT_TRUE(rep.comparable);
    ASSERT_TRUE(rep.diverged);
    EXPECT_EQ(rep.lane, "dispatch");  // Packet lane is identical by design.
    EXPECT_EQ(rep.intervalIndex, 5u);
    EXPECT_EQ(rep.startTick, 5000u);
    EXPECT_EQ(rep.endTick, 6000u);
    // Both objects' digests differ in interval 5 (they mix the cum tag);
    // beta's first dispatch (5020) precedes alpha's (5100), so beta owns it.
    EXPECT_EQ(rep.objectName, "system.beta");
    EXPECT_FALSE(rep.neighborhoodA.empty());
    // The black-box line at t=5050 falls inside the one-interval window.
    EXPECT_NE(rep.neighborhoodA.front().find("beta dispatch"), std::string::npos);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(DiffFinder, PacketsOnlyLaneIgnoresDispatchDivergence) {
    const unsigned cumsA[8] = {10, 11, 12, 13, 14, 15, 16, 17};
    const unsigned cumsB[8] = {10, 11, 92, 93, 94, 95, 96, 97};
    const std::string a = tempPath("diff_lane_a.g5rec");
    const std::string b = tempPath("diff_lane_b.g5rec");
    writeFile(a, eightIntervals("side_a", cumsA));
    writeFile(b, eightIntervals("side_b", cumsB));
    // Gated-vs-ungated mode: the dispatch stream may differ by design.
    const DivergenceReport packetsOnly =
        diffRecordingFiles(a, b, DiffLane::kPacketsOnly);
    EXPECT_TRUE(packetsOnly.comparable);
    EXPECT_FALSE(packetsOnly.diverged);
    // Both-lane mode still sees it.
    const DivergenceReport both = diffRecordingFiles(a, b, DiffLane::kBoth);
    ASSERT_TRUE(both.diverged);
    EXPECT_EQ(both.lane, "dispatch");
    EXPECT_EQ(both.intervalIndex, 2u);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(DiffFinder, MissingEndRecordReportsTruncatedRun) {
    const unsigned cums[8] = {10, 11, 12, 13, 14, 15, 16, 17};
    const std::string a = tempPath("diff_trunc_a.g5rec");
    const std::string b = tempPath("diff_trunc_b.g5rec");
    writeFile(a, eightIntervals("complete", cums));
    // Side B crashed: same intervals, no end line (drop the last line).
    std::string textB = eightIntervals("crashed", cums);
    textB.erase(textB.rfind("end "));
    writeFile(b, textB);
    const DivergenceReport rep = diffRecordingFiles(a, b);
    ASSERT_TRUE(rep.comparable);
    ASSERT_TRUE(rep.diverged);
    EXPECT_EQ(rep.lane, "end");
    EXPECT_NE(rep.detail.find("truncated"), std::string::npos);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(DiffFinder, TailMismatchAfterMatchingIntervals) {
    const unsigned cums[8] = {10, 11, 12, 13, 14, 15, 16, 17};
    const std::string a = tempPath("diff_tail_a.g5rec");
    const std::string b = tempPath("diff_tail_b.g5rec");
    writeFile(a, eightIntervals("tail_a", cums));
    // Same digests, but side B ran one tick longer past the last interval.
    std::string textB = eightIntervals("tail_b", cums);
    const std::size_t endAt = textB.rfind("end 8000");
    textB.replace(endAt, 8, "end 8001");
    writeFile(b, textB);
    const DivergenceReport rep = diffRecordingFiles(a, b);
    ASSERT_TRUE(rep.diverged);
    EXPECT_EQ(rep.lane, "end");
    EXPECT_NE(rep.detail.find("tails differ"), std::string::npos);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(DiffFinder, DifferentIntervalWidthsAreNotComparable) {
    const unsigned cums[8] = {10, 11, 12, 13, 14, 15, 16, 17};
    const std::string a = tempPath("diff_width_a.g5rec");
    const std::string b = tempPath("diff_width_b.g5rec");
    writeFile(a, eightIntervals("w1000", cums));
    std::string textB = eightIntervals("w2000", cums);
    textB.replace(textB.find("interval 1000"), 13, "interval 2000");
    writeFile(b, textB);
    const DivergenceReport rep = diffRecordingFiles(a, b);
    EXPECT_FALSE(rep.comparable);
    EXPECT_NE(rep.error.find("GEM5RTL_RECORD_INTERVAL"), std::string::npos);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(DiffFinder, EmptyIntervalGapsCarryCumulativeDigests) {
    // A was quiet during interval 3 (omitted row); B dispatched there. The
    // merged sweep must flag index 3 with A showing no activity.
    const std::string a = tempPath("diff_gap_a.g5rec");
    const std::string b = tempPath("diff_gap_b.g5rec");
    writeFile(a,
              "g5rec 1\nrun gap_a\ninterval 1000\n"
              "iv 0 0 2 " + dig(1) + " " + dig(10) + " 1 " + dig(2) + " " + dig(20) + "\n"
              "iv 5 5000 2 " + dig(3) + " " + dig(11) + " 1 " + dig(4) + " " + dig(21) + "\n"
              "end 6000 4 2 " + dig(11) + " " + dig(21) + "\n");
    writeFile(b,
              "g5rec 1\nrun gap_b\ninterval 1000\n"
              "iv 0 0 2 " + dig(1) + " " + dig(10) + " 1 " + dig(2) + " " + dig(20) + "\n"
              "iv 3 3000 1 " + dig(7) + " " + dig(77) + " 0 " + dig(0) + " " + dig(20) + "\n"
              "iv 5 5000 2 " + dig(3) + " " + dig(78) + " 1 " + dig(4) + " " + dig(21) + "\n"
              "end 6000 5 2 " + dig(78) + " " + dig(21) + "\n");
    const DivergenceReport rep = diffRecordingFiles(a, b);
    ASSERT_TRUE(rep.diverged);
    EXPECT_EQ(rep.intervalIndex, 3u);
    EXPECT_EQ(rep.lane, "dispatch");
    EXPECT_NE(rep.detail.find("no activity recorded"), std::string::npos);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

// The golden end-to-end case: identical topologies, but side A's forwarder
// deterministically rejects the first request (LCG seed 1, rejectOneIn 3 —
// the first draw is divisible by 3), so side A grows a retry event at tick
// 2000 that side B never has. The finder must name the forwarder and the
// first interval.
TEST(DiffFinder, FlakyForwarderDivergenceIsLocalizedToTheForwarder) {
    const std::string pathA = tempPath("diff_flaky_a.g5rec");
    const std::string pathB = tempPath("diff_flaky_b.g5rec");
    ObsOptions opts;
    opts.recordEnabled = true;
    opts.recordIntervalTicks = 5'000;  // One interval spans issue + retry.

    testing::FlakyForwarderParams flakyParams;  // seed 1, rejectOneIn 3.
    testing::FlakyForwarderParams cleanParams;
    cleanParams.rejectOneIn = 0;  // Same topology, never rejects.

    opts.recordPath = pathA;
    {
        testing::RecordHarness h{opts, "flaky_run", &flakyParams};
        h.runReads(4);
        ASSERT_GT(h.fwd->reqRejections() + h.fwd->respRejections(), 0);
    }
    opts.recordPath = pathB;
    {
        testing::RecordHarness h{opts, "clean_run", &cleanParams};
        h.runReads(4);
        ASSERT_EQ(h.fwd->reqRejections(), 0);
    }

    const DivergenceReport rep = diffRecordingFiles(pathA, pathB);
    ASSERT_TRUE(rep.comparable) << rep.error;
    ASSERT_TRUE(rep.diverged);
    // The first rejection happens on the very first request: interval 0.
    EXPECT_EQ(rep.intervalIndex, 0u);
    EXPECT_EQ(rep.startTick, 0u);
    EXPECT_EQ(rep.endTick, 5'000u);
    // The forwarder's retry event (tick 2000) exists on side A only, and
    // precedes every other dispatch difference in the interval.
    EXPECT_EQ(rep.objectName, "system.flaky");
    EXPECT_FALSE(rep.neighborhoodA.empty());
    EXPECT_FALSE(rep.neighborhoodB.empty());
    const std::string formatted = formatDivergenceReport(rep, "flaky", "clean");
    EXPECT_NE(formatted.find("system.flaky"), std::string::npos);
    std::remove(pathA.c_str());
    std::remove(pathB.c_str());
}

int runDiffCli(std::vector<const char*> argv) {
    argv.insert(argv.begin(), "diff");
    return diffCliMain(static_cast<int>(argv.size()), argv.data());
}

TEST(DiffCli, ExitCodesFollowTheReport) {
    const unsigned cumsA[8] = {10, 11, 12, 13, 14, 15, 16, 17};
    const unsigned cumsB[8] = {10, 11, 12, 13, 14, 95, 96, 97};
    const std::string a = tempPath("cli_a.g5rec");
    const std::string same = tempPath("cli_same.g5rec");
    const std::string other = tempPath("cli_other.g5rec");
    const std::string wide = tempPath("cli_wide.g5rec");
    writeFile(a, eightIntervals("a", cumsA));
    writeFile(same, eightIntervals("a", cumsA));
    writeFile(other, eightIntervals("b", cumsB));
    std::string textWide = eightIntervals("w", cumsA);
    textWide.replace(textWide.find("interval 1000"), 13, "interval 2000");
    writeFile(wide, textWide);

    EXPECT_EQ(runDiffCli({a.c_str(), same.c_str()}), 0);
    EXPECT_EQ(runDiffCli({a.c_str(), other.c_str()}), 1);
    EXPECT_EQ(runDiffCli({a.c_str(), "/no/such.g5rec"}), 2);
    EXPECT_EQ(runDiffCli({a.c_str()}), 2);
    EXPECT_EQ(runDiffCli({"--bogus", a.c_str(), same.c_str()}), 2);

    // --json keeps even an incomparable pair's report on stdout (exit 2).
    ::testing::internal::CaptureStdout();
    EXPECT_EQ(runDiffCli({"--json", a.c_str(), wide.c_str()}), 2);
    const exp::Json doc = exp::Json::parse(::testing::internal::GetCapturedStdout());
    EXPECT_FALSE(doc.at("comparable").asBool());
    EXPECT_NE(doc.at("error").asString().find("GEM5RTL_RECORD_INTERVAL"), std::string::npos);

    for (const std::string& path : {a, same, other, wide}) std::remove(path.c_str());
}

}  // namespace
}  // namespace g5r::obs
