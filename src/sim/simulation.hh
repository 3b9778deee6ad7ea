// Simulation: owns the event queue, tracks all SimObjects, and drives the
// main event loop. One Simulation instance per simulated system; there is no
// global state, so tests can run many systems in one process.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/event.hh"
#include "sim/event_queue.hh"
#include "sim/ticks.hh"

namespace g5r {

class SimObject;
class SimObserver;
namespace exp { class Json; }
namespace stats { class Stat; }

/// Why the event loop returned.
enum class ExitCause {
    kQueueEmpty,      ///< No events left to service.
    kMaxTickReached,  ///< The caller's deadline elapsed.
    kSimExit,         ///< A component called exitSimLoop().
};

struct RunResult {
    ExitCause cause;
    Tick tick;             ///< Tick at which the loop stopped.
    std::string message;   ///< exitSimLoop() reason, if any.
};

class Simulation {
public:
    Simulation() = default;
    Simulation(const Simulation&) = delete;
    Simulation& operator=(const Simulation&) = delete;

    EventQueue& eventQueue() { return queue_; }
    Tick curTick() const { return queue_.curTick(); }

    /// Called by the SimObject constructor.
    void registerObject(SimObject& obj) { objects_.push_back(&obj); }

    /// Request that the event loop stop at the current tick.
    void exitSimLoop(std::string reason);

    /// Run until the queue drains, maxTick passes, or exitSimLoop() is
    /// called. init()/startup() hooks run exactly once, on the first call.
    RunResult run(Tick maxTick = kMaxTick);

    /// Dump every registered object's statistics.
    void dumpStats(std::ostream& os) const;

    /// The same snapshot as a machine-readable JSON document: one member
    /// per object (keyed by its name), each a stats::Group::dumpJson()
    /// object. Shares the BENCH_*.json document model (exp/json.hh).
    exp::Json dumpStatsJson() const;

    /// Attach an observability hook (src/obs/ObsSession) — or nullptr to
    /// detach. The observer sees every dispatch (unless it declines them,
    /// SimObserver::observesDispatches) and packet of subsequent run()
    /// calls; with none attached the loop runs on its historical fast path.
    void setObserver(SimObserver* observer);
    SimObserver* observer() const { return observer_; }

    /// Look up a stat by fully-qualified name ("cpu0.committedInsts").
    const stats::Stat* findStat(std::string_view fullName) const;

    const std::vector<SimObject*>& objects() const { return objects_; }

    /// This simulation's packet-ID counter. run() installs it as the
    /// calling thread's active counter (sim/packet_id.hh) so the run's
    /// packet-ID stream is per-Simulation and deterministic.
    std::uint64_t& packetIdCounter() { return packetIdCounter_; }

    /// Allocate a request ID for causal tracing (sim/observer.hh). Always
    /// counts — whether or not an observer is attached — so the ID stream a
    /// given configuration produces is identical traced or untraced. IDs
    /// start at 1; 0 means "untagged".
    std::uint64_t allocRequestId() { return ++requestIdCounter_; }

private:
    RunResult runLoop(Tick maxTick);

    EventQueue queue_;
    SimObserver* observer_ = nullptr;
    std::vector<SimObject*> objects_;
    std::uint64_t packetIdCounter_ = 0;
    std::uint64_t requestIdCounter_ = 0;
    bool initialized_ = false;
    bool exitRequested_ = false;
    std::string exitMessage_;
};

}  // namespace g5r
