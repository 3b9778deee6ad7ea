// Ablation: DRAM write-drain policy. The controller buffers writes and
// drains them in bursts (watermark + minimum-writes-per-switch), paying a
// bus-turnaround penalty per direction switch. Sweeping the minimum drain
// burst on a mixed read/write stream shows why batched drains win: fewer
// turnarounds and higher effective bandwidth.
#include <cstdio>
#include <deque>

#include "exp/runner.hh"
#include "mem/dram.hh"
#include "mem/dram_configs.hh"
#include "sim/rng.hh"

using namespace g5r;

namespace {

/// Minimal open-loop requester: issues a prepared mix of reads and writes,
/// respecting retries, and records the completion time.
class StreamDriver : public ClockedObject {
public:
    StreamDriver(Simulation& sim, std::string name)
        : ClockedObject(sim, std::move(name), periodFromGHz(2)),
          port_(this->name() + ".port", *this),
          issueEvent_(*this, "issue", [this] { issue(); }) {}

    RequestPort& port() { return port_; }

    void queue(PacketPtr pkt) { sendQueue_.push_back(std::move(pkt)); }
    void startup() override { eventQueue().schedule(issueEvent_, clockEdge()); }

    std::uint64_t responses = 0;

private:
    class Port final : public RequestPort {
    public:
        Port(std::string n, StreamDriver& o) : RequestPort(std::move(n)), owner_(o) {}
        bool recvTimingResp(PacketPtr& pkt) override {
            pkt.reset();
            ++owner_.responses;
            return true;
        }
        void recvReqRetry() override { owner_.blocked_ = false; owner_.issue(); }

    private:
        StreamDriver& owner_;
    };

    void issue() {
        while (!blocked_ && !sendQueue_.empty()) {
            PacketPtr& pkt = sendQueue_.front();
            if (!port_.sendTimingReq(pkt)) {
                blocked_ = true;
                return;
            }
            sendQueue_.pop_front();
        }
    }

    Port port_;
    CallbackEvent issueEvent_;
    std::deque<PacketPtr> sendQueue_;
    bool blocked_ = false;
};

struct Result {
    Tick completion = 0;
    double turnarounds = 0;
    double bandwidthGBs = 0;
};

Result run(double lowWatermark) {
    Simulation sim;
    BackingStore store;
    auto params = dramParamsFor(MemTech::kDdr4_1ch, AddrRange{0, 1ULL << 30});
    params.channel.writeLowWatermark = lowWatermark;
    params.channel.minWritesPerSwitch = 1;  // Let the watermark govern alone.
    MultiChannelDram dram{sim, "dram", params, store};
    StreamDriver driver{sim, "driver"};
    driver.port().bind(dram.port());

    // Interleaved read and write streams over distinct regions.
    Rng rng{7};
    constexpr int kLines = 4096;
    for (int i = 0; i < kLines; ++i) {
        if (rng.below(2) == 0) {
            driver.queue(makeReadPacket(64ull * i, 64));
        } else {
            auto w = makeWritePacket((1 << 24) + 64ull * i, 64);
            w->set<std::uint64_t>(i);
            driver.queue(std::move(w));
        }
    }
    sim.run();

    Result r;
    r.completion = sim.curTick();
    r.turnarounds = sim.findStat("dram.ch0.busTurnarounds")->value();
    r.bandwidthGBs = kLines * 64.0 / ticksToSeconds(r.completion) / 1e9;
    return r;
}

}  // namespace

int main(int argc, char** argv) {
    const unsigned jobs = exp::parseJobsFlag(argc, argv);
    std::printf("# Ablation: DRAM write-drain depth (DDR4-1ch, mixed stream)\n");
    std::printf("%-22s %14s %13s %12s\n", "low watermark", "completion(us)",
                "turnarounds", "GB/s");
    const double lowWm[4] = {0.80, 0.60, 0.40, 0.10};
    std::vector<exp::Task<Result>> tasks;
    for (int i = 0; i < 4; ++i) {
        char label[32];
        std::snprintf(label, sizeof label, "writedrain/wm%.2f", lowWm[i]);
        tasks.push_back(exp::Task<Result>{label, [wm = lowWm[i]] { return run(wm); }});
    }
    const auto outcomes = exp::runTasks(std::move(tasks), jobs);

    Result results[4];
    for (int i = 0; i < 4; ++i) {
        if (!outcomes[i].ok) {
            std::printf("WARN: %s failed: %s\n", outcomes[i].label.c_str(),
                        outcomes[i].error.c_str());
        }
        results[i] = outcomes[i].value;
        std::printf("%-22.2f %14.2f %13.0f %12.2f\n", lowWm[i],
                    ticksToMs(results[i].completion) * 1000.0, results[i].turnarounds,
                    results[i].bandwidthGBs);
    }

    int failures = 0;
    auto check = [&](bool ok, const char* what) {
        std::printf("[%s] %s\n", ok ? "PASS" : "WARN", what);
        if (!ok) ++failures;
    };
    check(results[3].turnarounds < results[0].turnarounds,
          "deeper drains cause fewer bus turnarounds");
    check(results[3].completion <= results[0].completion + results[0].completion / 20,
          "deeper drains finish the mixed stream no slower (within 5%)");
    return failures == 0 ? 0 : 2;
}
