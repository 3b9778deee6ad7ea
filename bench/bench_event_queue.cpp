// Event-loop microbench: host cost of scheduling and servicing one event on
// the simulator's EventQueue alone, with no model behind the handlers.
// A fixed population of events keeps the queue at a steady depth (2, 10, 64
// and 4096 pending): each handler reschedules its own event at a delay drawn
// from the mix measured on the fig. 7 DSE sweep (20% the same tick, 5% +500
// ticks, 53% +1000, 19% within 5000, 3% beyond), and about 1% of handlers
// also move another pending event. A quarter of the events are keyed RTL
// ticks, like the bridge's. Three repetitions per depth; the fastest host
// time is reported as ns per schedule+service. A checksum over the dispatch
// order (event, tick) must be identical across repetitions or the bench
// exits 1; there is no timing threshold. Results serialize to
// BENCH_event_queue.json (schema 1).
//
// Single-process, single-thread by design, like bench_ooo_core.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "exp/bench_report.hh"
#include "sim/event.hh"
#include "sim/event_queue.hh"

using namespace g5r;

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    return h;
}

/// Pre-drawn random choices, replayed cyclically so the timed loop spends
/// nothing on the generator. Every repetition replays the same stream.
struct Draws {
    static constexpr std::size_t kSize = 1 << 16;
    std::vector<Tick> delay;         ///< Reschedule delay of each dispatch.
    std::vector<std::uint32_t> move; ///< Slot to move, or kNoMove.
    static constexpr std::uint32_t kNoMove = ~std::uint32_t{0};

    Draws(std::size_t depth, std::uint64_t seed) : delay(kSize), move(kSize, kNoMove) {
        std::mt19937_64 rng{seed};
        const auto below = [&rng](std::uint64_t n) { return rng() % n; };
        for (std::size_t i = 0; i < kSize; ++i) {
            const std::uint64_t r = below(100);
            delay[i] = r < 20   ? 0
                       : r < 25 ? 500
                       : r < 78 ? 1000
                       : r < 97 ? 1 + below(5000)
                                : 5000 + below(100'000);
            if (depth > 1 && below(100) == 0) {
                move[i] = static_cast<std::uint32_t>(below(depth));
            }
        }
    }
};

class Driver;

class BenchEvent final : public Event {
public:
    BenchEvent(Driver& driver, std::uint32_t slot, EventPriority prio)
        : Event(nullptr, "ev" + std::to_string(slot), prio), driver_(driver), slot_(slot) {}
    void process() override;

private:
    Driver& driver_;
    const std::uint32_t slot_;
};

class Driver {
public:
    Driver(std::size_t depth, const Draws& draws) : draws_(draws) {
        events_.reserve(depth);
        for (std::uint32_t s = 0; s < depth; ++s) {
            const bool keyed = s % 4 == 3;
            const EventPriority prio = keyed       ? EventPriority::kRtlTick
                                       : s % 4 == 1 ? EventPriority::kResponse
                                                    : EventPriority::kClockTick;
            events_.push_back(std::make_unique<BenchEvent>(*this, s, prio));
            if (keyed) events_.back()->setOrderKey(s);
            queue_.schedule(*events_.back(), s % 3 * 500);
        }
    }

    void fire(std::uint32_t slot) {
        const std::size_t i = next_++ & (Draws::kSize - 1);
        const Tick now = queue_.curTick();
        checksum_ = mix(checksum_, (now << 16) ^ slot);
        queue_.schedule(*events_[slot], now + draws_.delay[i]);
        const std::uint32_t other = draws_.move[i];
        if (other != Draws::kNoMove && other != slot) {
            queue_.reschedule(*events_[other], now + draws_.delay[(i + 1) & (Draws::kSize - 1)]);
        }
    }

    EventQueue& queue() { return queue_; }
    std::uint64_t checksum() const { return checksum_; }

private:
    const Draws& draws_;
    EventQueue queue_;
    std::vector<std::unique_ptr<BenchEvent>> events_;
    std::size_t next_ = 0;
    std::uint64_t checksum_ = 0;
};

void BenchEvent::process() { driver_.fire(slot_); }

struct RepResult {
    double wallSeconds = 0;
    std::uint64_t checksum = 0;
    Tick finalTick = 0;
};

RepResult runOnce(std::size_t depth, const Draws& draws, std::uint64_t dispatches) {
    Driver driver{depth, draws};
    EventQueue& q = driver.queue();
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < dispatches; ++i) q.serviceOne();
    RepResult r;
    r.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    r.checksum = driver.checksum();
    r.finalTick = q.curTick();
    return r;
}

}  // namespace

int main() {
    const bool full = std::getenv("GEM5RTL_FULL") != nullptr;
    const std::uint64_t dispatches = full ? 20'000'000 : 2'000'000;
    bool allOk = true;

    std::printf("# EventQueue schedule+service, fig. 7 delay mix, %llu dispatches per rep, "
                "best of 3\n",
                static_cast<unsigned long long>(dispatches));
    exp::Json doc = exp::benchDocument("event_queue", 1);
    doc["schema"] = 1;
    double sweepSeconds = 0;
    for (const std::size_t depth : {2, 10, 64, 4096}) {
        const Draws draws{depth, 0xE0E0 + depth};
        RepResult best = runOnce(depth, draws, dispatches);
        std::vector<double> reps{best.wallSeconds};
        bool repeatable = true;
        for (int rep = 1; rep < 3; ++rep) {
            const RepResult r = runOnce(depth, draws, dispatches);
            reps.push_back(r.wallSeconds);
            repeatable = repeatable && r.checksum == best.checksum && r.finalTick == best.finalTick;
            if (r.wallSeconds < best.wallSeconds) best.wallSeconds = r.wallSeconds;
        }
        for (const double s : reps) sweepSeconds += s;
        const double nsPerEvent = best.wallSeconds * 1e9 / static_cast<double>(dispatches);
        char hex[32];
        std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(best.checksum));
        std::printf("%s depth %5zu: %6.1f ns/event (best %.3f s), order checksum %s%s\n",
                    repeatable ? "ok  " : "FAIL", depth, nsPerEvent, best.wallSeconds, hex,
                    repeatable ? "" : " differs between reps");
        allOk = allOk && repeatable;

        exp::Json point = exp::Json::object();
        point["depth"] = depth;
        point["dispatches"] = dispatches;
        point["finalTick"] = best.finalTick;
        point["orderChecksum"] = hex;
        point["wallSeconds"] = best.wallSeconds;
        point["nsPerEvent"] = nsPerEvent;
        exp::Json repJson = exp::Json::array();
        for (const double s : reps) repJson.push(s);
        point["repWallSeconds"] = std::move(repJson);
        point["checksumOk"] = repeatable;
        doc["points"].push(std::move(point));
    }
    doc["sweepWallSeconds"] = sweepSeconds;

    const std::string path = exp::writeBenchJson("BENCH_event_queue.json", doc);
    if (!path.empty()) std::printf("# wrote %s\n", path.c_str());
    return allOk ? 0 : 1;
}
