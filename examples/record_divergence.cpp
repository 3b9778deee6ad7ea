// Deep-debugging demo: flight-record two runs of the same design point that
// differ in one knob (idle-tick quiescence gating on vs off), then locate
// their first divergence with the obs/diff finder — the library behind the
// `g5r diff` CLI.
//
// Gating changes the *dispatch* stream by design (idle RTL ticks are
// descheduled) while leaving the *packet* stream bit-identical, so this
// demo shows both lanes:
//
//   * both-lane diff: reports the first interval where the dispatch streams
//     part ways — expected, and localized to the gated RTL object;
//   * packet-lane diff: reports "identical" — the memory traffic agrees,
//     which is exactly the gated-vs-ungated identity check the Table 2/3
//     benches run on failure.
//
// CI runs this as the perturbed-pair divergence smoke and uploads the two
// .g5rec recordings as artifacts.
#include <cstdio>
#include <string>

#include "obs/diff.hh"
#include "soc/experiments.hh"

using namespace g5r;

namespace {

std::string runRecorded(bool gate, const std::string& dir) {
    experiments::DseRunConfig cfg;
    cfg.shape = models::sanity3Shape();
    cfg.workloadName = "sanity3";
    cfg.memTech = MemTech::kHbm;
    cfg.numAccelerators = 1;
    cfg.maxInflight = 64;
    cfg.numCores = 0;
    cfg.gateIdleTicks = gate;
    cfg.obs.recordEnabled = true;
    cfg.obs.recordIntervalTicks = 100'000;  // 100 ns: fine-grained localization.
    cfg.obs.recordPath = dir + "/" + (gate ? "gated" : "ungated") + ".g5rec";
    const auto result = experiments::runNvdlaDse(cfg);
    if (!result.completed || !result.checksumsOk) {
        std::printf("run failed verification (gate=%d)\n", gate);
        return {};
    }
    return result.recordPath;
}

}  // namespace

int main(int argc, char** argv) {
    const std::string dir = argc > 1 ? argv[1] : ".";
    const std::string gated = runRecorded(true, dir);
    const std::string ungated = runRecorded(false, dir);
    if (gated.empty() || ungated.empty()) return 1;
    std::printf("recorded %s and %s\n\n", gated.c_str(), ungated.c_str());

    // Both lanes: the dispatch streams must differ (gating removed idle RTL
    // ticks) — the finder names the first interval and the gated object.
    const auto both = obs::diffRecordingFiles(gated, ungated, obs::DiffLane::kBoth);
    std::printf("--- both lanes (dispatch stream differs by design) ---\n%s\n",
                obs::formatDivergenceReport(both, "gated", "ungated").c_str());

    // Packet lane only: the identity check — gating must not change the
    // memory traffic.
    const auto packets =
        obs::diffRecordingFiles(gated, ungated, obs::DiffLane::kPacketsOnly);
    std::printf("--- packet lane (the gating identity check) ---\n%s",
                obs::formatDivergenceReport(packets, "gated", "ungated").c_str());

    // Exit like `g5r diff` would on the packet lane: divergence here is a bug.
    if (!packets.comparable) return 2;
    if (packets.diverged) return 1;
    if (!both.comparable || !both.diverged) {
        // Gating should have produced *some* dispatch-lane difference; if it
        // did not, the demo is not demonstrating anything.
        std::printf("unexpected: dispatch streams identical despite gating toggle\n");
        return 1;
    }
    return 0;
}
