// Port round-trip microbench: host cost of one request/response round trip
// through the timing-port protocol, a crossbar and a memory, with no model
// behind the requesters. Eight closed-loop requesters each keep four line
// reads in flight through one Xbar into one SimpleMemory. The crossbar's
// single request layer admits one request per cycle, so most sends are
// refused and retried: the reject/retry path runs on every round trip, as it
// does on the fig. 7 memory bus. Three repetitions; the fastest host time is
// reported as ns per round trip. A checksum over every response (requester,
// tick, packet id, payload) must be identical across repetitions or the
// bench exits 1; there is no timing threshold. Results serialize to
// BENCH_port_roundtrip.json (schema 1).
//
// Single-process, single-thread by design, like bench_event_queue.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "exp/bench_report.hh"
#include "mem/backing_store.hh"
#include "mem/port.hh"
#include "mem/simple_mem.hh"
#include "mem/xbar.hh"
#include "sim/event.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

using namespace g5r;

namespace {

constexpr unsigned kRequesters = 8;
constexpr unsigned kInflight = 4;
constexpr unsigned kLine = 64;
constexpr Addr kSpan = 1 << 20;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    return h;
}

/// Keeps kInflight reads outstanding until it has received its quota,
/// resending a refused read on the crossbar's retry.
class Requester final : public SimObject {
public:
    Requester(Simulation& sim, unsigned idx, std::uint64_t quota, std::uint64_t& checksum)
        : SimObject(sim, strCat("req", idx)),
          port_(name() + ".port", *this),
          issueEvent_(*this, "issue", [this] { issue(); }),
          idx_(idx),
          quota_(quota),
          checksum_(checksum),
          nextAddr_(static_cast<Addr>(idx) * kSpan / kRequesters) {}

    RequestPort& port() { return port_; }
    std::uint64_t received() const { return received_; }

    void startup() override { eventQueue().schedule(issueEvent_, 0); }

private:
    class Port final : public RequestPort {
    public:
        Port(std::string portName, Requester& owner)
            : RequestPort(std::move(portName)), owner_(owner) {}
        bool recvTimingResp(PacketPtr& pkt) override {
            owner_.receive(pkt);
            return true;
        }
        void recvReqRetry() override {
            owner_.blocked_ = false;
            owner_.issue();
        }

    private:
        Requester& owner_;
    };

    void issue() {
        while (!blocked_ && inflight_ < kInflight && sent_ < quota_) {
            if (pending_ == nullptr) {
                pending_ = makeReadPacket(nextAddr_, kLine);
                nextAddr_ = (nextAddr_ + kLine) % kSpan;
            }
            if (!port_.sendTimingReq(pending_)) {
                blocked_ = true;
                return;
            }
            ++inflight_;
            ++sent_;
        }
    }

    void receive(PacketPtr& pkt) {
        std::uint64_t word;
        std::memcpy(&word, pkt->constData(), sizeof word);
        checksum_ = mix(checksum_, (curTick() << 8) ^ idx_);
        checksum_ = mix(checksum_, pkt->id() ^ (word << 1));
        pkt.reset();
        --inflight_;
        ++received_;
        // Refill from an event, not from inside the crossbar's delivery.
        if (!issueEvent_.scheduled()) eventQueue().schedule(issueEvent_, curTick());
    }

    Port port_;
    CallbackEvent issueEvent_;
    const unsigned idx_;
    const std::uint64_t quota_;
    std::uint64_t& checksum_;
    Addr nextAddr_;
    PacketPtr pending_;
    bool blocked_ = false;
    unsigned inflight_ = 0;
    std::uint64_t sent_ = 0;
    std::uint64_t received_ = 0;
};

struct RepResult {
    double wallSeconds = 0;
    std::uint64_t checksum = 0;
    std::uint64_t roundTrips = 0;
    double conflicts = 0;
    Tick finalTick = 0;
};

RepResult runOnce(std::uint64_t perRequester) {
    Simulation sim;
    BackingStore store;
    for (Addr a = 0; a < kSpan; a += 8) store.store<std::uint64_t>(a, a * 0x9E3779B1u);
    Xbar xbar{sim, "membus", {}};
    SimpleMemory::Params mp;
    mp.range = AddrRange{0, kSpan};
    mp.maxPending = kRequesters * kInflight;
    SimpleMemory mem{sim, "mem", mp, store};
    xbar.addMemSidePort("mem", RouteSpec{mem.range()}).bind(mem.port());

    RepResult r;
    std::vector<std::unique_ptr<Requester>> reqs;
    for (unsigned i = 0; i < kRequesters; ++i) {
        reqs.push_back(std::make_unique<Requester>(sim, i, perRequester, r.checksum));
        reqs.back()->port().bind(xbar.addCpuSidePort(reqs.back()->name()));
    }

    const auto start = std::chrono::steady_clock::now();
    sim.run();
    r.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    for (const auto& req : reqs) r.roundTrips += req->received();
    r.conflicts = sim.findStat("membus.layerConflicts")->value();
    r.finalTick = sim.curTick();
    return r;
}

}  // namespace

int main() {
    const bool full = std::getenv("GEM5RTL_FULL") != nullptr;
    const std::uint64_t perRequester = full ? 1'000'000 : 100'000;

    std::printf("# Port round trip: %u requesters x %u in flight -> Xbar -> SimpleMemory, "
                "%llu round trips per rep, best of 3\n",
                kRequesters, kInflight,
                static_cast<unsigned long long>(perRequester * kRequesters));
    RepResult best = runOnce(perRequester);
    std::vector<double> reps{best.wallSeconds};
    bool repeatable = best.roundTrips == perRequester * kRequesters;
    for (int rep = 1; rep < 3; ++rep) {
        const RepResult r = runOnce(perRequester);
        reps.push_back(r.wallSeconds);
        repeatable = repeatable && r.checksum == best.checksum && r.finalTick == best.finalTick &&
                     r.roundTrips == best.roundTrips && r.conflicts == best.conflicts;
        if (r.wallSeconds < best.wallSeconds) best.wallSeconds = r.wallSeconds;
    }
    const double nsPerRoundTrip =
        best.wallSeconds * 1e9 / static_cast<double>(best.roundTrips);
    const double rejectsPerRoundTrip = best.conflicts / static_cast<double>(best.roundTrips);
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(best.checksum));
    std::printf("%s %6.1f ns/round trip (best %.3f s), %.2f layer rejects per round trip, "
                "checksum %s%s\n",
                repeatable ? "ok  " : "FAIL", nsPerRoundTrip, best.wallSeconds,
                rejectsPerRoundTrip, hex, repeatable ? "" : " differs between reps");

    exp::Json doc = exp::benchDocument("port_roundtrip", 1);
    doc["schema"] = 1;
    exp::Json point = exp::Json::object();
    point["requesters"] = kRequesters;
    point["inflightPerRequester"] = kInflight;
    point["roundTrips"] = best.roundTrips;
    point["layerConflicts"] = best.conflicts;
    point["finalTick"] = best.finalTick;
    point["checksum"] = hex;
    point["wallSeconds"] = best.wallSeconds;
    point["nsPerRoundTrip"] = nsPerRoundTrip;
    exp::Json repJson = exp::Json::array();
    double sweepSeconds = 0;
    for (const double s : reps) {
        repJson.push(s);
        sweepSeconds += s;
    }
    point["repWallSeconds"] = std::move(repJson);
    point["checksumOk"] = repeatable;
    doc["points"].push(std::move(point));
    doc["sweepWallSeconds"] = sweepSeconds;

    const std::string path = exp::writeBenchJson("BENCH_port_roundtrip.json", doc);
    if (!path.empty()) std::printf("# wrote %s\n", path.c_str());
    return repeatable ? 0 : 1;
}
